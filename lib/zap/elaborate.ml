open Ir

exception Error of int * string

let err line fmt = Printf.ksprintf (fun s -> raise (Error (line, s))) fmt

(* ---------------- compile-time numerics ---------------------------- *)

let rec eval_num env line (e : Ast.numexpr) : float =
  match e with
  | Ast.Num f -> f
  | Ast.NVar x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> err line "unknown config constant %S" x)
  | Ast.NNeg a -> -.eval_num env line a
  | Ast.NBin (op, a, b) -> (
      let va = eval_num env line a and vb = eval_num env line b in
      match op with
      | '+' -> va +. vb
      | '-' -> va -. vb
      | '*' -> va *. vb
      | '/' -> va /. vb
      | _ -> err line "bad numeric operator %C" op)

let eval_int env line e =
  let f = eval_num env line e in
  let i = int_of_float f in
  if float_of_int i <> f then err line "expected an integer, got %g" f;
  i

(* ---------------- symbol tables ------------------------------------ *)

type env = {
  configs : (string * float) list;
  regions : (string, Region.t) Hashtbl.t;
  dirs : (string, Support.Vec.t) Hashtbl.t;
  arrays : (string, Prog.array_info) Hashtbl.t;
  mutable scalars : (string * float) list;
  mutable exports : string list;
  mutable temps : Prog.array_info list;
  mutable temp_count : int;
}

let resolve_region env line = function
  | Ast.Rname n -> (
      match Hashtbl.find_opt env.regions n with
      | Some r -> r
      | None -> err line "unknown region %S" n)
  | Ast.Rinline ranges ->
      Region.of_bounds
        (List.map
           (fun (lo, hi) ->
             (eval_int env.configs line lo, eval_int env.configs line hi))
           ranges)

let resolve_dir env line = function
  | Ast.Dname n -> (
      match Hashtbl.find_opt env.dirs n with
      | Some d -> d
      | None -> err line "unknown direction %S" n)
  | Ast.Dinline xs ->
      Support.Vec.of_list (List.map (eval_int env.configs line) xs)

(* ---------------- expression translation --------------------------- *)

let builtins1 =
  [
    ("sqrt", Expr.Sqrt); ("exp", Expr.Exp); ("log", Expr.Log);
    ("sin", Expr.Sin); ("cos", Expr.Cos); ("abs", Expr.Abs);
    ("floor", Expr.Floor); ("hashrand", Expr.Hashrand);
  ]

let builtins2 = [ ("min", Expr.Min); ("max", Expr.Max); ("pow", Expr.Pow) ]

let bin_of_string line = function
  | "+" -> Expr.Add
  | "-" -> Expr.Sub
  | "*" -> Expr.Mul
  | "/" -> Expr.Div
  | "^" -> Expr.Pow
  | "<" -> Expr.Lt
  | "<=" -> Expr.Le
  | ">" -> Expr.Gt
  | ">=" -> Expr.Ge
  | "==" -> Expr.Eq
  | "!=" -> Expr.Ne
  | "&&" -> Expr.And
  | "||" -> Expr.Or
  | op -> err line "unknown operator %S" op

(* [rank] — rank of the enclosing array context, or None for scalar
   contexts (array references forbidden). *)
let rec tr_expr env line ~rank ~scope (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Const f -> Expr.Const f
  | Ast.Var x -> (
      match Hashtbl.find_opt env.arrays x with
      | Some info -> (
          match rank with
          | None -> err line "array %S used in a scalar context" x
          | Some r ->
              if Region.rank info.Prog.bounds <> r then
                err line "array %S has rank %d, statement rank %d" x
                  (Region.rank info.Prog.bounds) r;
              Expr.Ref (x, Support.Vec.zero r))
      | None ->
          if
            List.mem_assoc x env.configs
            || List.mem_assoc x env.scalars
            || List.mem x scope
          then Expr.Svar x
          else err line "unknown identifier %S" x)
  | Ast.At (x, d) -> (
      let off = resolve_dir env line d in
      match Hashtbl.find_opt env.arrays x with
      | None -> err line "@ applied to non-array %S" x
      | Some info -> (
          match rank with
          | None -> err line "array %S used in a scalar context" x
          | Some r ->
              if Support.Vec.rank off <> r then
                err line "direction rank %d does not match statement rank %d"
                  (Support.Vec.rank off) r;
              if Region.rank info.Prog.bounds <> r then
                err line "array %S has rank %d, statement rank %d" x
                  (Region.rank info.Prog.bounds) r;
              Expr.Ref (x, off)))
  | Ast.Index d -> (
      match rank with
      | None -> err line "index%d used in a scalar context" d
      | Some r ->
          if d < 1 || d > r then
            err line "index%d out of range for rank %d" d r;
          Expr.Idx d)
  | Ast.Unary ("-", a) -> Expr.Unop (Expr.Neg, tr_expr env line ~rank ~scope a)
  | Ast.Unary ("!", a) -> Expr.Unop (Expr.Not, tr_expr env line ~rank ~scope a)
  | Ast.Unary (op, _) -> err line "unknown unary operator %S" op
  | Ast.Bin (op, a, b) ->
      Expr.Binop
        ( bin_of_string line op,
          tr_expr env line ~rank ~scope a,
          tr_expr env line ~rank ~scope b )
  | Ast.Call ("select", [ c; a; b ]) ->
      Expr.Select
        ( tr_expr env line ~rank ~scope c,
          tr_expr env line ~rank ~scope a,
          tr_expr env line ~rank ~scope b )
  | Ast.Call (f, [ a ]) when List.mem_assoc f builtins1 ->
      Expr.Unop (List.assoc f builtins1, tr_expr env line ~rank ~scope a)
  | Ast.Call (f, [ a; b ]) when List.mem_assoc f builtins2 ->
      Expr.Binop
        ( List.assoc f builtins2,
          tr_expr env line ~rank ~scope a,
          tr_expr env line ~rank ~scope b )
  | Ast.Call (f, args) ->
      err line "unknown function %S with %d argument(s)" f (List.length args)

(* ---------------- statements --------------------------------------- *)

let fresh_temp env region =
  env.temp_count <- env.temp_count + 1;
  let name = Printf.sprintf "__t%d" env.temp_count in
  let info = { Prog.name; bounds = region; kind = Prog.Compiler } in
  env.temps <- info :: env.temps;
  Hashtbl.replace env.arrays name info;
  name

let rec tr_stmt env ~scope (s : Ast.stmt) : Prog.stmt list =
  let line = s.Ast.line in
  match s.Ast.it with
  | Ast.Assign (rref, lhs, rhs) -> (
      let region = resolve_region env line rref in
      let rank = Region.rank region in
      (match Hashtbl.find_opt env.arrays lhs with
      | None -> err line "assignment to undeclared array %S" lhs
      | Some info ->
          if Region.rank info.Prog.bounds <> rank then
            err line "array %S has rank %d, region rank %d" lhs
              (Region.rank info.Prog.bounds) rank);
      let rhs = tr_expr env line ~rank:(Some rank) ~scope rhs in
      if List.mem lhs (Expr.ref_names rhs) then begin
        (* normalization: split through a compiler temporary to
           preserve array semantics (full RHS before any store) *)
        let tmp = fresh_temp env region in
        [
          Prog.Astmt (Nstmt.make ~region ~lhs:tmp rhs);
          Prog.Astmt
            (Nstmt.make ~region ~lhs
               (Expr.Ref (tmp, Support.Vec.zero rank)));
        ]
      end
      else [ Prog.Astmt (Nstmt.make ~region ~lhs rhs) ])
  | Ast.Reduce (target, op, rref, arg) ->
      let region = resolve_region env line rref in
      let rank = Region.rank region in
      if not (List.mem_assoc target env.scalars || List.mem target scope) then
        err line "reduction target %S is not a scalar" target;
      let arg = tr_expr env line ~rank:(Some rank) ~scope arg in
      let op =
        match op with
        | "+<<" -> Prog.Rsum
        | "*<<" -> Prog.Rprod
        | "min<<" -> Prog.Rmin
        | "max<<" -> Prog.Rmax
        | other -> err line "unknown reduction operator %S" other
      in
      [ Prog.Reduce { target; op; region; arg } ]
  | Ast.Sassign (target, e) ->
      if Hashtbl.mem env.arrays target then
        err line
          "assignment to array %S needs a region prefix: [R] %s := ..."
          target target;
      if not (List.mem_assoc target env.scalars || List.mem target scope) then
        err line "assignment to undeclared scalar %S" target;
      let e = tr_expr env line ~rank:None ~scope e in
      [ Prog.Sassign (target, e) ]
  | Ast.For (v, lo, hi, body) ->
      if Hashtbl.mem env.arrays v || List.mem_assoc v env.scalars then
        err line "loop variable %S shadows a declaration" v;
      let lo = eval_int env.configs line lo in
      let hi = eval_int env.configs line hi in
      let body = List.concat_map (tr_stmt env ~scope:(v :: scope)) body in
      [ Prog.Sloop { var = v; lo; hi; body } ]

(* ---------------- whole programs ----------------------------------- *)

let elaborate ?(config = []) (p : Ast.program) : Prog.t =
  (* config defaults first, overridden by the caller *)
  let configs = ref [] in
  List.iter
    (fun (d : Ast.decl) ->
      match d.Ast.dit with
      | Ast.Config (name, v) ->
          let value =
            match List.assoc_opt name config with
            | Some v -> v
            | None -> eval_num !configs d.Ast.dline v
          in
          configs := !configs @ [ (name, value) ]
      | _ -> ())
    p.Ast.decls;
  let env =
    {
      configs = !configs;
      regions = Hashtbl.create 8;
      dirs = Hashtbl.create 8;
      arrays = Hashtbl.create 16;
      scalars = [];
      exports = [];
      temps = [];
      temp_count = 0;
    }
  in
  let user_arrays = ref [] in
  List.iter
    (fun (d : Ast.decl) ->
      let line = d.Ast.dline in
      match d.Ast.dit with
      | Ast.Config _ -> ()
      | Ast.Region (name, ranges) ->
          let r =
            Region.of_bounds
              (List.map
                 (fun (lo, hi) ->
                   (eval_int env.configs line lo, eval_int env.configs line hi))
                 ranges)
          in
          if Region.is_empty r then err line "region %S is empty" name;
          Hashtbl.replace env.regions name r
      | Ast.Direction (name, xs) ->
          Hashtbl.replace env.dirs name
            (Support.Vec.of_list (List.map (eval_int env.configs line) xs))
      | Ast.VarArrays (names, rref) ->
          let bounds = resolve_region env line rref in
          List.iter
            (fun name ->
              if Hashtbl.mem env.arrays name then
                err line "duplicate array %S" name;
              let info = { Prog.name; bounds; kind = Prog.User } in
              Hashtbl.replace env.arrays name info;
              user_arrays := info :: !user_arrays)
            names
      | Ast.Scalar (name, init) ->
          let v =
            match init with
            | Some e -> eval_num env.configs line e
            | None -> 0.0
          in
          env.scalars <- env.scalars @ [ (name, v) ]
      | Ast.Export names -> env.exports <- env.exports @ names)
    p.Ast.decls;
  let body = List.concat_map (tr_stmt env ~scope:[]) p.Ast.body in
  List.iter
    (fun x ->
      if
        not
          (Hashtbl.mem env.arrays x
          || List.mem_assoc x env.scalars
          || List.mem_assoc x env.configs)
      then err 0 "export of undeclared name %S" x)
    env.exports;
  let prog =
    {
      Prog.name = p.Ast.pname;
      arrays = List.rev !user_arrays @ List.rev env.temps;
      (* configs are readable scalars *)
      scalars = env.configs @ env.scalars;
      body;
      live_out = env.exports;
    }
  in
  (match Prog.validate prog with
  | Ok () -> ()
  | Error e -> err 0 "%s" e);
  prog

let compile_string ?config src =
  let ast = Obs.span "parse" (fun () -> Parser.parse src) in
  Obs.span "elaborate" (fun () -> elaborate ?config ast)
