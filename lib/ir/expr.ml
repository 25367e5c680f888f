type unop =
  | Neg
  | Sqrt
  | Exp
  | Log
  | Sin
  | Cos
  | Abs
  | Floor
  | Not
  | Hashrand

type binop =
  | Add | Sub | Mul | Div | Pow
  | Min | Max
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type t =
  | Const of float
  | Svar of string
  | Ref of string * Support.Vec.t
  | Idx of int
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of t * t * t

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Svar _ | Ref _ | Idx _ -> acc
  | Unop (_, a) -> fold f acc a
  | Binop (_, a, b) -> fold f (fold f acc a) b
  | Select (c, a, b) -> fold f (fold f (fold f acc c) a) b

let refs e =
  fold (fun acc e -> match e with Ref (x, d) -> (x, d) :: acc | _ -> acc) [] e
  |> List.rev

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let ref_names e = dedup (List.map fst (refs e))

let svars e =
  fold (fun acc e -> match e with Svar s -> s :: acc | _ -> acc) [] e
  |> List.rev |> dedup

let has_idx e =
  fold (fun acc e -> acc || match e with Idx _ -> true | _ -> false) false e

let rec map_refs f e =
  match e with
  | Const _ | Svar _ | Idx _ -> e
  | Ref (x, d) -> f x d
  | Unop (op, a) -> Unop (op, map_refs f a)
  | Binop (op, a, b) -> Binop (op, map_refs f a, map_refs f b)
  | Select (c, a, b) -> Select (map_refs f c, map_refs f a, map_refs f b)

let rank_consistent ~rank e =
  fold
    (fun ok e ->
      ok
      &&
      match e with
      | Ref (_, d) -> Support.Vec.rank d = rank
      | Idx i -> 1 <= i && i <= rank
      | _ -> true)
    true e

(* splitmix64 finalizer over the bit pattern of the argument *)
let hashrand x =
  let open Int64 in
  let z = if x <> x then Support.Hash64.canonical_nan else bits_of_float x in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  let bits = shift_right_logical z 11 in
  (to_float bits +. 0.5) *. (1.0 /. 9007199254740992.0)

let bool_of f = f <> 0.0
let of_bool b = if b then 1.0 else 0.0

(* NaN-propagating minimum/maximum — the single definition of Min/Max
   every executor (both interpreters, the SPMD engine, the emitted C)
   must agree with.  C's fmin/fmax return the non-NaN operand and
   OCaml's polymorphic min/max disagree with each other (min
   propagates NaN, max drops it); we standardize on propagation.  On
   ordered operands the tie goes to the left argument, so signed
   zeros are resolved identically everywhere.  The NaN they return is
   C's [NAN], not OCaml's [Float.nan] (0x7FF8000000000001): [Hashrand]
   reads the bit pattern. *)
let nan = Int64.float_of_bits Support.Hash64.canonical_nan
let fmin x y = if x <> x || y <> y then nan else if x <= y then x else y
let fmax x y = if x <> x || y <> y then nan else if x >= y then x else y

let apply_unop op x =
  match op with
  | Neg -> -.x
  | Sqrt -> sqrt x
  | Exp -> exp x
  | Log -> log x
  | Sin -> sin x
  | Cos -> cos x
  | Abs -> abs_float x
  | Floor -> floor x
  | Not -> of_bool (not (bool_of x))
  | Hashrand -> hashrand x

let apply_binop op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Pow -> x ** y
  | Min -> fmin x y
  | Max -> fmax x y
  | Lt -> of_bool (x < y)
  | Le -> of_bool (x <= y)
  | Gt -> of_bool (x > y)
  | Ge -> of_bool (x >= y)
  | Eq -> of_bool (x = y)
  | Ne -> of_bool (x <> y)
  | And -> of_bool (bool_of x && bool_of y)
  | Or -> of_bool (bool_of x || bool_of y)

let is_flop = function
  | Add | Sub | Mul | Div | Pow | Min | Max -> true
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> false

let unop_name = function
  | Neg -> "-"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Abs -> "abs"
  | Floor -> "floor"
  | Not -> "!"
  | Hashrand -> "hashrand"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "^"
  | Min -> "min"
  | Max -> "max"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let rec pp ppf = function
  | Const f -> Format.fprintf ppf "%g" f
  | Svar s -> Format.pp_print_string ppf s
  | Ref (x, d) ->
      if Support.Vec.is_null d then Format.pp_print_string ppf x
      else Format.fprintf ppf "%s@%a" x Support.Vec.pp d
  | Idx i -> Format.fprintf ppf "idx%d" i
  | Unop (op, a) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp a
  | Binop ((Min | Max) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_name op) pp a pp b
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Select (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" pp c pp a pp b

let to_string e = Format.asprintf "%a" pp e
