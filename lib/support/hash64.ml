type t = int64

let empty = 0L

let canonical_nan = 0x7FF8000000000000L

let[@inline] mix_bits d bits =
  Int64.add (Int64.mul d 6364136223846793005L)
    (Int64.logxor bits 1442695040888963407L)

let[@inline] mix_float d v =
  mix_bits d (if v <> v then canonical_nan else Int64.bits_of_float v)

(* [mix_bits] and [mix_float] inline here, so the running state stays
   unboxed *)
let mix_float_array d a =
  let d = ref d in
  for k = 0 to Array.length a - 1 do
    d := mix_float !d a.(k)
  done;
  !d

let mix_int d i = mix_bits d (Int64.of_int i)

let mix_string d s =
  String.fold_left
    (fun d c -> mix_bits d (Int64.of_int (Char.code c)))
    (mix_int d (String.length s))
    s

let to_hex d = Printf.sprintf "%016Lx" d
