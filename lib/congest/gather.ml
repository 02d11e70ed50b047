open Ch_graph

type msg =
  | Dist of int
  | Child
  | Edge of int * int * int
  | Vweight of int * int
  | Done
  | Answer of int

type state = {
  dist : int option;
  announced : bool;
  parent : int;
  children : int list;
  queue : msg list;
  queue_back : msg list;
  pending_children : int;
  done_sent : bool;
  collected : msg list;
  answer : int option;
  answer_forwarded : bool;
}

let initial ~root ctx =
  {
    dist = (if ctx.Network.id = root then Some 0 else None);
    announced = false;
    parent = -1;
    children = [];
    queue = [];
    queue_back = [];
    pending_children = 0;
    done_sent = false;
    collected = [];
    answer = None;
    answer_forwarded = false;
  }

let own_records ?edge_filter ctx =
  let v = ctx.Network.id in
  let edges =
    Array.to_list ctx.Network.neighbors
    |> List.filter (fun u -> v < u)
    |> List.map (fun u -> (v, u, ctx.Network.edge_weight u))
  in
  let edges =
    match edge_filter with
    | Some keep -> List.filter (keep ctx) edges
    | None -> edges
  in
  Vweight (v, ctx.Network.vertex_weight)
  :: List.map (fun (u, w, wt) -> Edge (u, w, wt)) edges

(* On a directed network a vertex uploads its out-arcs instead: the
   [Edge] record keeps its (tail, head) orientation, so the root can
   rebuild the digraph from the same message vocabulary (and the same
   codec) as the undirected gather. *)
let own_arc_records ctx =
  let v = ctx.Network.id in
  Vweight (v, ctx.Network.vertex_weight)
  :: (Array.to_list ctx.Network.out_arcs
     |> List.map (fun (u, w) -> Edge (v, u, w)))

let reconstruct ~n records =
  let g = Graph.create n in
  List.iter
    (function
      | Vweight (v, w) -> Graph.set_vweight g v w
      | Edge (u, v, w) -> Graph.add_edge ~w g u v
      | Dist _ | Child | Done | Answer _ -> assert false)
    records;
  g

let reconstruct_digraph ~n records =
  let dg = Digraph.create n in
  List.iter
    (function
      | Vweight (v, w) -> Digraph.set_vweight dg v w
      | Edge (u, v, w) -> Digraph.add_arc ~w dg u v
      | Dist _ | Child | Done | Answer _ -> assert false)
    records;
  dg

let algo_gen ~records ~answer_of ~root () : (state, msg) Network.algo =
  {
    name = "gather";
    init = initial ~root;
    round =
      (fun ctx ~round st inbox ->
        let n = ctx.Network.n in
        let is_root = ctx.Network.id = root in
        if round < n then begin
          (* phase 1: BFS flooding *)
          let st =
            match st.dist with
            | Some _ -> st
            | None -> (
                let dists =
                  List.filter_map
                    (function s, Dist d -> Some (s, d) | _ -> None)
                    inbox
                in
                match List.sort (fun (_, a) (_, b) -> compare a b) dists with
                | (sender, d) :: _ ->
                    { st with dist = Some (d + 1); parent = sender }
                | [] -> st)
          in
          match st.dist with
          | Some d when not st.announced ->
              ( { st with announced = true },
                Array.to_list
                  (Array.map (fun u -> (u, Dist d)) ctx.Network.neighbors) )
          | _ -> (st, [])
        end
        else if round = n then begin
          (* phase 2: children discovery + queue initialization *)
          let records = records ctx in
          let st =
            if is_root then { st with collected = records }
            else { st with queue = records }
          in
          if is_root || st.parent < 0 then (st, [])
          else (st, [ (st.parent, Child) ])
        end
        else begin
          (* phase 3: pipelined upcast, then answer broadcast *)
          let st =
            List.fold_left
              (fun st (sender, msg) ->
                match msg with
                | Child ->
                    {
                      st with
                      children = sender :: st.children;
                      pending_children = st.pending_children + 1;
                    }
                | Edge _ | Vweight _ ->
                    if is_root then { st with collected = msg :: st.collected }
                    else { st with queue_back = msg :: st.queue_back }
                | Done -> { st with pending_children = st.pending_children - 1 }
                | Answer a -> { st with answer = Some a }
                | Dist _ -> st)
              st inbox
          in
          if is_root then begin
            match st.answer with
            | Some a when not st.answer_forwarded ->
                ( { st with answer_forwarded = true },
                  List.map (fun c -> (c, Answer a)) st.children )
            | Some _ -> (st, [])
            | None ->
                (* children report Done only after round n+1, so waiting one
                   extra round for Child messages is safe *)
                if round > n + 1 && st.pending_children = 0 then begin
                  let a = answer_of ~n st.collected in
                  ({ st with answer = Some a }, [])
                end
                else (st, [])
          end
          else begin
            match st.answer with
            | Some a when not st.answer_forwarded ->
                ( { st with answer_forwarded = true },
                  List.map (fun c -> (c, Answer a)) st.children )
            | Some _ -> (st, [])
            | None -> (
                (* the relay queue is a two-list FIFO: records are popped
                   from [queue], pushed onto [queue_back] (newest first),
                   and the back is reversed into the front only when the
                   front runs dry — the same order as appending each
                   record to one list, at O(1) amortized per record *)
                let st =
                  match (st.queue, st.queue_back) with
                  | [], (_ :: _ as back) ->
                      { st with queue = List.rev back; queue_back = [] }
                  | _ -> st
                in
                match st.queue with
                | record :: rest -> ({ st with queue = rest }, [ (st.parent, record) ])
                | [] ->
                    if
                      round > n + 1
                      && st.pending_children = 0
                      && not st.done_sent
                    then ({ st with done_sent = true }, [ (st.parent, Done) ])
                    else (st, []))
          end
        end);
    msg_bits =
      (fun msg ->
        match msg with
        | Dist d -> 3 + Encode.int_bits ~max:(max 1 d)
        | Child | Done -> 3
        | Edge (u, v, w) ->
            3 + Encode.int_bits ~max:(max u v) * 2 + Encode.int_bits ~max:(max 1 w)
        | Vweight (v, w) ->
            3 + Encode.int_bits ~max:(max 1 v) + Encode.int_bits ~max:(max 1 w)
        | Answer a -> 3 + Encode.int_bits ~max:(max 1 (abs a)));
    output = (fun st -> st.answer);
  }

let algo ?edge_filter ~root ~f () =
  algo_gen
    ~records:(own_records ?edge_filter)
    ~answer_of:(fun ~n records -> f (reconstruct ~n records))
    ~root ()

let directed_algo ~root ~f () =
  algo_gen ~records:own_arc_records
    ~answer_of:(fun ~n records -> f (reconstruct_digraph ~n records))
    ~root ()

let solve ?seed ?bandwidth_factor ?(root = 0) g ~f =
  let states, stats =
    Network.run ?seed ?bandwidth_factor g (algo ~root ~f ())
  in
  let answer = Option.get states.(root).answer in
  Array.iter (fun st -> assert (st.answer = Some answer)) states;
  (answer, stats)

let solve_split ?seed ?bandwidth_factor ?(root = 0) ~side g ~f =
  let states, cut_stats =
    Network.run_split ?seed ?bandwidth_factor ~side g (algo ~root ~f ())
  in
  (Option.get states.(root).answer, cut_stats)

let solve_partitioned ?seed ?bandwidth_factor ?(root = 0) ~partition g ~f =
  let states, part_stats =
    Network.run_partitioned ?seed ?bandwidth_factor ~partition g
      (algo ~root ~f ())
  in
  (Option.get states.(root).answer, part_stats)

let solve_directed ?seed ?bandwidth_factor ?(root = 0) dg ~f =
  let states, stats =
    Network.run_directed ?seed ?bandwidth_factor dg (directed_algo ~root ~f ())
  in
  let answer = Option.get states.(root).answer in
  Array.iter (fun st -> assert (st.answer = Some answer)) states;
  (answer, stats)

let solve_directed_split ?seed ?bandwidth_factor ?(root = 0) ~side dg ~f =
  let states, cut_stats =
    Network.run_directed_split ?seed ?bandwidth_factor ~side dg
      (directed_algo ~root ~f ())
  in
  (Option.get states.(root).answer, cut_stats)
