type t = { capacity : int; words : int array }

let bits_per_word = 63

let nwords capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { capacity; words = Array.make (max 1 (nwords capacity)) 0 }

let capacity t = t.capacity

let full capacity =
  let t = create capacity in
  let wn = Array.length t.words in
  for w = 0 to wn - 1 do
    let lo = w * bits_per_word in
    let hi = min t.capacity (lo + bits_per_word) in
    let count = hi - lo in
    if count > 0 then t.words.(w) <- (1 lsl count) - 1
  done;
  t

let copy t = { capacity = t.capacity; words = Array.copy t.words }

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.capacity)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* Population count by 16-bit table lookup: four dependent-free loads
   beat the bit-at-a-time Kernighan loop on the dense words the solvers
   scan.  Words may have bit 62 set (OCaml's 63-bit ints are negative
   then); [lsr] is a logical shift, so the top slice is still < 2^15. *)
let pc16 =
  let t = Bytes.create 65536 in
  Bytes.unsafe_set t 0 '\000';
  for i = 1 to 65535 do
    Bytes.unsafe_set t i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let[@inline] pc i = Char.code (Bytes.unsafe_get pc16 i)

let[@inline] popcount x =
  pc (x land 0xffff)
  + pc ((x lsr 16) land 0xffff)
  + pc ((x lsr 32) land 0xffff)
  + pc (x lsr 48)

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  a.words = b.words

let subset a b =
  same_capacity a b;
  let n = Array.length a.words in
  let rec go w = w >= n || (a.words.(w) land lnot b.words.(w) = 0 && go (w + 1)) in
  go 0

let copy_into dst src =
  same_capacity dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let union_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let diff_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

let union a b =
  let t = copy a in
  union_into t b;
  t

let inter a b =
  let t = copy a in
  inter_into t b;
  t

let diff a b =
  let t = copy a in
  diff_into t b;
  t

let inter_cardinal a b =
  same_capacity a b;
  let acc = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(w) land b.words.(w))
  done;
  !acc

let intersects a b =
  same_capacity a b;
  let n = Array.length a.words in
  let rec go w = w < n && (a.words.(w) land b.words.(w) <> 0 || go (w + 1)) in
  go 0

(* Index of the lowest set bit: isolate it and popcount the ones below.
   With the table-based popcount this is O(1), not O(set bits).  When
   the ones below fit 16 bits, as on every step of a Gray walk or a
   subset-sum scan over at most 16 bits, one table load counts them. *)
let[@inline] ctz x =
  let below = (x land -x) - 1 in
  if below lsr 16 = 0 then pc below else popcount below

let choose t =
  let rec go w =
    if w >= Array.length t.words then raise Not_found
    else if t.words.(w) <> 0 then (w * bits_per_word) + ctz t.words.(w)
    else go (w + 1)
  in
  go 0

(* Word-at-a-time scan: zero words cost one compare, and each set bit
   costs one ctz plus one clear-lowest-bit ([w land (w - 1)]) instead of
   a per-index [mem] probe. *)
let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      let base = w * bits_per_word in
      while !word <> 0 do
        let x = !word in
        f (base + ctz x);
        word := x land (x - 1)
      done
    end
  done

let fold f t init =
  let words = t.words in
  let acc = ref init in
  for w = 0 to Array.length words - 1 do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      let base = w * bits_per_word in
      while !word <> 0 do
        let x = !word in
        acc := f (base + ctz x) !acc;
        word := x land (x - 1)
      done
    end
  done;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity items =
  let t = create capacity in
  List.iter (add t) items;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements t)
