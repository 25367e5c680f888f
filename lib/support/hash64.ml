type t = int64

let empty = 0L

let canonical_nan = 0x7FF8000000000000L

let[@inline] mix_bits d bits =
  Int64.add (Int64.mul d 6364136223846793005L)
    (Int64.logxor bits 1442695040888963407L)

let[@inline] mix_float d v =
  mix_bits d (if v <> v then canonical_nan else Int64.bits_of_float v)

(* [get64u b i] is the 8 bytes of [b] at byte [i], in native byte
   order, unchecked and with no call. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* A flat float array stores element [k] unboxed at byte [8 k], so
   [get64u] on it reads that element's bits; every float array is flat
   unless OCaml was configured without flat float arrays. *)
let flat = Obj.tag (Obj.repr (Array.make 1 0.0)) = Obj.double_array_tag

(* [mix_bits] inlines here, so the running state stays unboxed.  A bit
   pattern is a NaN exactly when its exponent is all ones and its
   mantissa is not zero, that is when the pattern without its sign bit
   exceeds infinity's. *)
let mix_float_array d a =
  if not flat then Array.fold_left mix_float d a
  else begin
    let b : bytes = Obj.magic a in
    let d = ref d in
    for k = 0 to Array.length a - 1 do
      let bits = get64u b (8 * k) in
      let bits =
        if Int64.logand bits Int64.max_int > 0x7FF0000000000000L then
          canonical_nan
        else bits
      in
      d := mix_bits !d bits
    done;
    !d
  end

let mix_int d i = mix_bits d (Int64.of_int i)

let mix_string d s =
  String.fold_left
    (fun d c -> mix_bits d (Int64.of_int (Char.code c)))
    (mix_int d (String.length s))
    s

let to_hex d = Printf.sprintf "%016Lx" d
