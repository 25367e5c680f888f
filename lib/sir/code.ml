type subscript = { base : string; off : int }

type expr =
  | Const of float
  | Scalar of string
  | Load of string * subscript array
  | Unop of Ir.Expr.unop * expr
  | Binop of Ir.Expr.binop * expr * expr
  | Select of expr * expr * expr

type stmt =
  | Sassign of string * expr
  | Store of string * subscript array * expr
  | For of { var : string; lo : int; hi : int; step : int; body : stmt list }

type alloc = {
  name : string;
  dims : (int * int) array;
}

type program = {
  name : string;
  allocs : alloc list;
  scalars : (string * float) list;
  body : stmt list;
  live_out : string list;
}

let loop_var d = Printf.sprintf "__i%d" d

let alloc_volume a =
  Array.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 a.dims

let program_elements p =
  List.fold_left (fun acc a -> acc + alloc_volume a) 0 p.allocs

let rec stmt_loops = function
  | Sassign _ | Store _ -> 0
  | For { body; _ } -> 1 + List.fold_left (fun a s -> a + stmt_loops s) 0 body

let count_loops p = List.fold_left (fun a s -> a + stmt_loops s) 0 p.body

let count_nests p =
  let rec top acc = function
    | [] -> acc
    | For { body; _ } :: tl ->
        (* a For at statement level is an outermost nest unless it is a
           sequential loop containing further nests, in which case count
           the nests inside it *)
        let inner =
          List.fold_left (fun a s -> a + (match s with For _ -> 1 | _ -> 0)) 0 body
        in
        if inner > 0 then top (top acc body) tl else top (acc + 1) tl
    | _ :: tl -> top acc tl
  in
  top 0 p.body
