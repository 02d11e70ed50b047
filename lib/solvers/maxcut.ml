open Ch_graph
module Obs = Ch_obs.Obs

let c_flips = Obs.counter "solver.maxcut.flips"
let h_flips = Obs.histogram "solver.maxcut.flips_per_call"
let sp_maxcut = Obs.span "solver.maxcut"

let cut_weight g side =
  let acc = ref 0 in
  Graph.iter_edges (fun u v w -> if side.(u) <> side.(v) then acc := !acc + w) g;
  !acc

type adjacency = { off : int array; nbr : int array; wt : int array }

let adjacency n edges =
  let off = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v, _) ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1)
    edges;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let nbr = Array.make off.(n) 0 and wt = Array.make off.(n) 0 in
  let next = Array.copy off in
  let put u v w =
    nbr.(next.(u)) <- v;
    wt.(next.(u)) <- w;
    next.(u) <- next.(u) + 1
  in
  List.iter
    (fun (u, v, w) ->
      put u v w;
      put v u w)
    edges;
  { off; nbr; wt }

(* [side] is typed so that [=] compiles to an integer compare, not the
   polymorphic one *)
let flip_delta adj (side : bool array) v =
  let d = ref 0 and sv = side.(v) in
  for e = adj.off.(v) to adj.off.(v + 1) - 1 do
    if side.(adj.nbr.(e)) = sv then d := !d + adj.wt.(e) else d := !d - adj.wt.(e)
  done;
  !d

let graph_adjacency g = adjacency (Graph.n g) (Graph.edges g)

let max_cut g =
  Obs.with_span sp_maxcut (fun () ->
      let n = Graph.n g in
      if n > 30 then invalid_arg "Maxcut.max_cut: n > 30";
      let adj = graph_adjacency g in
      let side = Array.make n false in
      let best_w = ref 0 and best = Array.make n false in
      if n > 1 then begin
        let weight = ref 0 in
        (* vertex 0 stays on side [false]: cuts come in symmetric pairs *)
        let steps = (1 lsl (n - 1)) - 1 in
        Obs.incr c_flips steps;
        Obs.observe h_flips steps;
        for t = 1 to steps do
          let v = 1 + Bitset.ctz t in
          weight := !weight + flip_delta adj side v;
          side.(v) <- not side.(v);
          if !weight > !best_w then begin
            best_w := !weight;
            Array.blit side 0 best 0 n
          end
        done
      end;
      (!best_w, best))

(* Decision variant: the same Gray-code walk as [max_cut], stopped at the
   first assignment reaching [bound] — typically after a tiny prefix of
   the 2^(n-1) walk when the answer is yes. *)
let exists_of_weight g bound =
  Obs.with_span sp_maxcut (fun () ->
      let n = Graph.n g in
      if n > 30 then invalid_arg "Maxcut.exists_of_weight: n > 30";
      if bound <= 0 then true (* the empty cut weighs 0 *)
      else if n <= 1 then false
      else begin
        let adj = graph_adjacency g in
        let side = Array.make n false in
        let weight = ref 0 in
        let steps = (1 lsl (n - 1)) - 1 in
        let taken = ref 0 and found = ref false in
        let t = ref 1 in
        while (not !found) && !t <= steps do
          let v = 1 + Bitset.ctz !t in
          weight := !weight + flip_delta adj side v;
          side.(v) <- not side.(v);
          incr taken;
          if !weight >= bound then found := true;
          incr t
        done;
        if Obs.enabled () then begin
          Obs.incr c_flips !taken;
          Obs.observe h_flips !taken
        end;
        !found
      end)

(* The component of [root] in G − volatile ([bit.(v) >= 0] marks the
   volatile vertices), and its volatile neighbours N(C) as a mask over
   the bits of a volatile assignment. *)
let component adj bit seen root =
  let queue = Array.make (Array.length bit) root in
  let len = ref 1 and head = ref 0 and near = ref 0 in
  seen.(root) <- true;
  while !head < !len do
    let v = queue.(!head) in
    incr head;
    for e = adj.off.(v) to adj.off.(v + 1) - 1 do
      let u = adj.nbr.(e) in
      if bit.(u) >= 0 then near := !near lor (1 lsl bit.(u))
      else if not seen.(u) then begin
        seen.(u) <- true;
        queue.(!len) <- u;
        incr len
      end
    done
  done;
  (Array.sub queue 0 !len, !near)

(* Once the volatile sides are fixed, every other vertex lies in a
   component C of G − volatile whose edges reach only C and N(C), so

     m.(a) = (cut weight of the volatile–volatile edges under a)
             + Σ_C best_C (a land N(C))

   where best_C is one Gray walk over C for each assignment of N(C):
   Σ_C 2^|N(C)|·(2^|C| − 1) flips rather than 2^n − 1. *)
let conditioned_max g ~volatile =
  Obs.with_span sp_maxcut (fun () ->
      let n = Graph.n g in
      if n > 30 then invalid_arg "Maxcut.conditioned_max: n > 30";
      let vol = Array.of_list volatile in
      let s = Array.length vol in
      let bit = Array.make n (-1) in
      Array.iteri
        (fun i v ->
          if v < 0 || v >= n then invalid_arg "Maxcut.conditioned_max: bad vertex";
          if bit.(v) >= 0 then invalid_arg "Maxcut.conditioned_max: duplicate vertex";
          bit.(v) <- i)
        vol;
      let adj = graph_adjacency g in
      let m = Array.make (1 lsl s) 0 in
      (* the volatile–volatile edges: a is [a land (a - 1)] with the
         vertex of its lowest bit moved to side [true] *)
      for a = 1 to (1 lsl s) - 1 do
        let v = vol.(Bitset.ctz a) and rest = a land (a - 1) in
        let d = ref 0 in
        for e = adj.off.(v) to adj.off.(v + 1) - 1 do
          let j = bit.(adj.nbr.(e)) in
          if j >= 0 then
            if rest land (1 lsl j) <> 0 then d := !d - adj.wt.(e) else d := !d + adj.wt.(e)
        done;
        m.(a) <- m.(rest) + !d
      done;
      let side = Array.make n false and seen = Array.make n false in
      let best = Array.make (1 lsl s) 0 in
      let flips = ref 0 in
      for root = 0 to n - 1 do
        if bit.(root) < 0 && not seen.(root) then begin
          let c, near = component adj bit seen root in
          let r = Array.length c in
          (* every submask b of N(C), from near down to 0 *)
          let b = ref near and more = ref true in
          while !more do
            for j = 0 to s - 1 do
              side.(vol.(j)) <- !b land (1 lsl j) <> 0
            done;
            for i = 0 to r - 1 do
              side.(c.(i)) <- false
            done;
            (* with C all on side false, its edges to N(C)'s side-true
               vertices are the ones cut *)
            let weight = ref 0 in
            for i = 0 to r - 1 do
              let v = c.(i) in
              for e = adj.off.(v) to adj.off.(v + 1) - 1 do
                if side.(adj.nbr.(e)) then weight := !weight + adj.wt.(e)
              done
            done;
            let top = ref !weight in
            for t = 1 to (1 lsl r) - 1 do
              let v = c.(Bitset.ctz t) in
              weight := !weight + flip_delta adj side v;
              side.(v) <- not side.(v);
              if !weight > !top then top := !weight
            done;
            best.(!b) <- !top;
            flips := !flips + (1 lsl r) - 1;
            if !b = 0 then more := false else b := (!b - 1) land near
          done;
          for a = 0 to (1 lsl s) - 1 do
            m.(a) <- m.(a) + best.(a land near)
          done
        end
      done;
      Obs.incr c_flips !flips;
      Obs.observe h_flips !flips;
      m)

let local_search ~seed g =
  let n = Graph.n g in
  let rng = Random.State.make [| seed |] in
  let side = Array.init n (fun _ -> Random.State.bool rng) in
  let adj = graph_adjacency g in
  let improved = ref true in
  while !improved do
    improved := false;
    for v = 0 to n - 1 do
      if flip_delta adj side v > 0 then begin
        side.(v) <- not side.(v);
        improved := true
      end
    done
  done;
  (cut_weight g side, side)

let random_cut ~seed g =
  let rng = Random.State.make [| seed |] in
  let side = Array.init (Graph.n g) (fun _ -> Random.State.bool rng) in
  (cut_weight g side, side)
