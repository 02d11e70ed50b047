type t = { ell : int; r : int; sets : int array }

let full_mask ell = (1 lsl ell) - 1

let property_holds ~ell ~r sets =
  let t_count = Array.length sets in
  let full = full_mask ell in
  (* choose r indices and polarities; complementary pairs are excluded by
     construction (one polarity per chosen index) *)
  let rec choose idx remaining union =
    if remaining = 0 then union <> full
    else if idx >= t_count then true
    else if t_count - idx < remaining then true
    else
      choose (idx + 1) remaining union
      && choose (idx + 1) (remaining - 1) (union lor sets.(idx))
      && choose (idx + 1) (remaining - 1) (union lor (lnot sets.(idx) land full))
  in
  choose 0 r 0

(* For r = 2 a deterministic "anchored" collection works: all sets share
   element 0 and are distinct halves of [1, ℓ).  Pairwise unions miss an
   element (sizes are small), complements always share the anchor, and no
   set contains another. *)
let anchored_r2 ~ell ~t_count =
  if ell < 4 then None
  else begin
    let p_size = max 1 ((ell - 2) / 2) in
    (* the first t_count subsets of [1, ℓ) of size p_size, each unioned
       with the anchor {0} *)
    let results = ref [] in
    let rec combos start chosen count =
      if List.length !results >= t_count then ()
      else if count = 0 then results := (1 lor chosen) :: !results
      else
        for e = start to ell - 1 do
          if List.length !results < t_count then
            combos (e + 1) (chosen lor (1 lsl e)) (count - 1)
        done
    in
    combos 1 0 p_size;
    if List.length !results >= t_count then
      Some (Array.of_list (List.rev !results))
    else None
  end

let construct ?(seed = 0) ~ell ~t_count ~r () =
  if ell > 62 then invalid_arg "Covering.construct: ell > 62";
  let deterministic =
    if r = 2 then
      match anchored_r2 ~ell ~t_count with
      | Some sets when property_holds ~ell ~r sets -> Some sets
      | _ -> None
    else None
  in
  match deterministic with
  | Some sets -> { ell; r; sets }
  | None ->
      let densities = [| 0.5; 0.6; 0.4; 0.65; 0.35; 0.55; 0.45 |] in
      let rec go attempt =
        if attempt > 20000 then
          failwith "Covering.construct: no collection found (parameters too tight?)"
        else begin
          let rng = Random.State.make [| seed; attempt |] in
          let density = densities.(attempt mod Array.length densities) in
          let random_set () =
            let mask = ref 0 in
            for e = 0 to ell - 1 do
              if Random.State.float rng 1.0 < density then
                mask := !mask lor (1 lsl e)
            done;
            !mask
          in
          let sets = Array.init t_count (fun _ -> random_set ()) in
          if property_holds ~ell ~r sets then { ell; r; sets }
          else go (attempt + 1)
        end
      in
      go 0

let mem t ~set j = (t.sets.(set) lsr j) land 1 = 1

let cheap_when_set vertex i =
  { Ch_core.Framework.at0 = []; at1 = [ Ch_core.Framework.Vweight (vertex i, 1) ] }

let beyond_r t = Ch_core.Framework.At_least (t.r + 1)
