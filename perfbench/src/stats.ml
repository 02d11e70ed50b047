let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    s.(rank n q - 1)
  end

let median xs = quantile xs 0.5

let beyond n q = if n = 0 then 0 else n - rank n q
