type t = int array

let make n k = Array.make n k
let zero n = make n 0
let of_list = Array.of_list
let to_list = Array.to_list
let rank = Array.length
let get v i = v.(i - 1)

let binop name f a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: rank mismatch (%d vs %d)" name
                   (Array.length a) (Array.length b));
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = binop "add" ( + ) a b
let sub a b = binop "sub" ( - ) a b
let neg a = Array.map (fun x -> -x) a
let is_null v = Array.for_all (fun x -> x = 0) v
let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

let compare = Stdlib.compare

(* Every component is folded in; bases and representatives share low
   bits, so the high bits are mixed back down. *)
let hash (a : t) =
  let h = ref 0 in
  for i = 0 to Array.length a - 1 do
    let x = (!h lxor a.(i)) * 0x100000001b3 in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let lex_nonneg v =
  let rec go i =
    if i >= Array.length v then true
    else if v.(i) > 0 then true
    else if v.(i) < 0 then false
    else go (i + 1)
  in
  go 0

let lex_pos v = lex_nonneg v && not (is_null v)

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list v)

let to_string v = Format.asprintf "%a" pp v
