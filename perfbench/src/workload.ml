type ctx = {
  seed : int;
  host : Host.t;
  dir : string;
  traced : bool;
  inject : bool;
}

type instance = {
  steps : Loop.step array;
  classes : string array;
  first_cycle : unit -> unit;
  layers : Loop.result -> (string * float) list;
  stop : unit -> unit;
}

type t = { name : string; setup : ctx -> instance }

let shuffle seed a =
  let a = Array.copy a in
  let st = Random.State.make [| 0x5eed; seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
