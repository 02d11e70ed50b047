let words = 4096
let passes = 256
let data = Array.make words 1

let run () =
  for _ = 1 to passes do
    for i = 0 to words - 1 do
      let v = Array.unsafe_get data i in
      Array.unsafe_set data i (((v * 33) + i) land 0xffffff)
    done
  done
