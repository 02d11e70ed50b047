type t = { graph : Graph.t; distinguished : int array; certified : bool }

(* Roots 0..d-1 are the distinguished vertices; root i owns the two leaves
   d+2i and d+2i+1, and the leaves carry a 3-regular expander (for d >= 3). *)
let skeleton ~seed d =
  match d with
  | 1 ->
      (* A single distinguished vertex: the cut property is vacuous (one
         side always misses D), but we keep degree 2 by a triangle. *)
      Some (Graph.of_edges 3 [ (0, 1); (0, 2); (1, 2) ])
  | 2 ->
      (* Two disjoint paths between the distinguished vertices: any cut
         separating them is crossed at least twice. *)
      Some (Graph.of_edges 4 [ (0, 2); (2, 1); (0, 3); (3, 1) ])
  | d ->
      let leaves = 2 * d in
      (match Gen.random_regular ~seed leaves 3 with
      | None -> None
      | Some expander ->
          let g = Graph.create (3 * d) in
          for i = 0 to d - 1 do
            Graph.add_edge g i (d + (2 * i));
            Graph.add_edge g i (d + (2 * i) + 1)
          done;
          Graph.iter_edges (fun u v _ -> Graph.add_edge g (d + u) (d + v)) expander;
          Some g)

let cut_property_holds_graph g distinguished =
  let n = Graph.n g in
  if n > 22 then invalid_arg "Expander.cut_property_holds: graph too large";
  let edges = Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g)) in
  let d_mask =
    Array.fold_left (fun acc v -> acc lor (1 lsl v)) 0 distinguished
  in
  let d_total = Array.length distinguished in
  let ok = ref true in
  (* the property is complement-symmetric: fix vertex 0 outside S *)
  let mask_limit = 1 lsl (n - 1) in
  let mask = ref 1 in
  while !ok && !mask < mask_limit do
    let s = !mask lsl 1 in
    let inside = Bitset.popcount (s land d_mask) in
    let need = min inside (d_total - inside) in
    if need > 0 then begin
      let crossing = ref 0 in
      Array.iter
        (fun (u, v) ->
          if (s lsr u) land 1 <> (s lsr v) land 1 then incr crossing)
        edges;
      if !crossing < need then ok := false
    end;
    incr mask
  done;
  !ok

let cut_property_holds t = cut_property_holds_graph t.graph t.distinguished

let cache : (int * int, t) Hashtbl.t = Hashtbl.create 64

let build ?(seed = 0) d =
  if d < 1 then invalid_arg "Expander.build: d >= 1 required";
  match Hashtbl.find_opt cache (d, seed) with
  | Some t -> t
  | None ->
  let distinguished = Array.init d Fun.id in
  let verifiable = 3 * d <= 21 in
  let rec go attempt =
    if attempt > 200 then
      failwith "Expander.build: could not generate a valid gadget"
    else
      match skeleton ~seed:(seed + (1000 * attempt)) d with
      | None -> go (attempt + 1)
      | Some g ->
          if not verifiable then { graph = g; distinguished; certified = false }
          else if cut_property_holds_graph g distinguished then
            { graph = g; distinguished; certified = true }
          else go (attempt + 1)
  in
  let t = go 0 in
  Hashtbl.replace cache (d, seed) t;
  t
