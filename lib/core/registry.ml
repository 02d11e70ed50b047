type reduction = {
  rd_parties : int;
  rd_partition : int array option;
  rd_solver : Framework.solver;
  rd_accept : int -> bool;
}

type spec = {
  id : string;
  title : string;
  paper_ref : string;
  origin : string;
  default_k : int;
  sweep_ks : int list;
  scratch : int -> Framework.t;
  incremental : (int -> Framework.incremental) option;
  reduction : (int -> reduction) option;
}

(* The gather uploads edges, arcs and vertex weights, so the root can
   run any objective on a graph or a digraph; terminals and a root are
   not uploaded yet. *)
let gathered = function
  | Framework.Of_graph f -> Some (Framework.Graph_solver f)
  | Framework.Of_digraph f -> Some (Framework.Digraph_solver f)
  | Framework.Of_terminals _ | Framework.Of_rooted _ -> None

(* Only the solver and the goal outlive the family built at [k], so a
   reduction keeps no core alive. *)
let reduction_at ?partition scratch k =
  let fam = scratch k in
  let rd_partition = Option.map (fun p -> p k) partition in
  {
    rd_parties = Option.fold ~none:2 ~some:Ch_congest.Network.partition_parts rd_partition;
    rd_partition;
    rd_solver = Option.get (gathered fam.Framework.objective);
    rd_accept = Framework.meets fam.Framework.goal;
  }

let spec ~id ~title ~paper_ref ~origin ~default_k ~sweep_ks ?incremental ?partition scratch =
  let reduction =
    match gathered (scratch default_k).Framework.objective with
    | Some _ -> Some (reduction_at ?partition scratch)
    | None -> None
  in
  { id; title; paper_ref; origin; default_k; sweep_ks; scratch; incremental; reduction }

(* registration order matters for listings, so keep the list alongside the
   id index *)
type t = { specs : spec list; index : (string, spec) Hashtbl.t }

exception Duplicate_id of string

let of_specs specs =
  let index = Hashtbl.create (List.length specs) in
  List.iter
    (fun s ->
      if Hashtbl.mem index s.id then raise (Duplicate_id s.id);
      Hashtbl.add index s.id s)
    specs;
  { specs; index }

let ids t = List.map (fun s -> s.id) t.specs

let all t = t.specs

let find t id = Hashtbl.find_opt t.index id

let mem t id = Hashtbl.mem t.index id

let unknown_id_message t id =
  Printf.sprintf "unknown family %S; valid ids: %s" id
    (String.concat ", " (ids t))

let find_exn t id =
  match find t id with
  | Some s -> s
  | None -> invalid_arg (unknown_id_message t id)

let filter ?incremental ?reduction t =
  let flag opt present =
    match opt with None -> true | Some want -> want = present
  in
  List.filter
    (fun s ->
      flag incremental (s.incremental <> None)
      && flag reduction (s.reduction <> None))
    t.specs

let to_json t =
  let open Ch_json.Jsonx in
  let family s =
    let fam = s.scratch s.default_k in
    let parties =
      match s.reduction with
      | None -> []
      | Some rd -> [ ("parties", Int (rd s.default_k).rd_parties) ]
    in
    Obj
      ([
         ("id", Str s.id); ("title", Str s.title);
         ("paper_ref", Str s.paper_ref); ("origin", Str s.origin);
         ("default_k", Int s.default_k);
         ("incremental", Bool (s.incremental <> None));
         ("reduction", Bool (s.reduction <> None));
       ]
      @ parties
      @ [
          ("n", Int fam.Framework.nvertices);
          ("input_bits", Int fam.Framework.input_bits);
          ("cut", Int (Framework.cut_size fam));
        ])
  in
  Obj [ ("families", Arr (List.map family t.specs)) ]
