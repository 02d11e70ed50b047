type t = { sdir : string }

type 'a read = Value of 'a | Missing | Corrupt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir ~key =
  let sdir = Filename.concat dir key in
  mkdir_p sdir;
  { sdir }

let find ~dir ~key =
  let sdir = Filename.concat dir key in
  if Sys.file_exists sdir && Sys.is_directory sdir then Some { sdir } else None

let dir t = t.sdir

let block_path t index = Filename.concat t.sdir (Printf.sprintf "shard-%04d.blk" index)
let snap_path t = Filename.concat t.sdir "memo-0.snap"

(* Killed writers leave only their temp file behind; the rename is the
   commit point, so a reader never sees a partially written artifact
   under its final name.  The pid keeps processes apart and the counter
   keeps apart the domains and threads of one process writing the same
   artifact at once. *)
let tmp_seq = Atomic.make 0

let atomic_write path content =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  if not (Sys.file_exists path) then None
  else
    Some
      (let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic)))

let block_tag = "chshard1"
let snap_tag = "chsnap1"

let write_block t ~index verdicts =
  let payload =
    String.init (Array.length verdicts) (fun i ->
        if verdicts.(i) then '1' else '0')
  in
  let header =
    Printf.sprintf "%s %d %d %s\n" block_tag index (Array.length verdicts)
      (Digest.to_hex (Digest.string payload))
  in
  atomic_write (block_path t index) (header ^ payload ^ "\n")

(* Any deviation — bad tag, short file, index or length mismatch, digest
   mismatch, stray bytes after the payload — is [Corrupt]: the caller
   recomputes the shard, it never merges suspect bytes. *)
let parse_block ~index body =
  match String.index_opt body '\n' with
  | None -> Corrupt
  | Some nl -> (
      match String.split_on_char ' ' (String.sub body 0 nl) with
      | [ tag; idx; count; digest ] -> (
          match (int_of_string_opt idx, int_of_string_opt count) with
          | Some idx, Some count
            when tag = block_tag && idx = index && count >= 0
                 && String.length body = nl + 1 + count + 1
                 && body.[String.length body - 1] = '\n' ->
              let payload = String.sub body (nl + 1) count in
              if Digest.to_hex (Digest.string payload) <> digest then Corrupt
              else begin
                let ok = ref true in
                let verdicts =
                  Array.init count (fun i ->
                      match payload.[i] with
                      | '1' -> true
                      | '0' -> false
                      | _ ->
                          ok := false;
                          false)
                in
                if !ok then Value verdicts else Corrupt
              end
          | _ -> Corrupt)
      | _ -> Corrupt)

let read_block t ~index =
  match read_file (block_path t index) with
  | None -> Missing
  | Some body -> parse_block ~index body

let write_snapshot t payload =
  let header =
    Printf.sprintf "%s %d %s\n" snap_tag (String.length payload)
      (Digest.to_hex (Digest.string payload))
  in
  atomic_write (snap_path t) (header ^ payload)

let read_snapshot t =
  match read_file (snap_path t) with
  | None -> Missing
  | Some body -> (
      match String.index_opt body '\n' with
      | None -> Corrupt
      | Some nl -> (
          match String.split_on_char ' ' (String.sub body 0 nl) with
          | [ tag; len; digest ] -> (
              match int_of_string_opt len with
              | Some len
                when tag = snap_tag && len >= 0
                     && String.length body = nl + 1 + len ->
                  let payload = String.sub body (nl + 1) len in
                  if Digest.to_hex (Digest.string payload) = digest then
                    Value payload
                  else Corrupt
              | _ -> Corrupt)
          | _ -> Corrupt))
