(* Self-contained textual repros for test/corpus/.

   A repro file is one s-expression describing an Ir.Prog.t, preceded
   by optional `;` comment lines (typically the seed, case number and
   divergence that produced it).  Floats print as hex literals (%h) so
   programs round-trip bit-for-bit — a shrunk NaN repro that
   re-parses into a slightly different constant would be useless. *)

open Ir

type sexp = Atom of string | L of sexp list

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexing / reading                                                    *)
(* ------------------------------------------------------------------ *)

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ';' then begin
      while !i < n && s.[!i] <> '\n' do incr i done
    end
    else if c = '(' || c = ')' then begin
      toks := String.make 1 c :: !toks;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else begin
      let start = !i in
      while
        !i < n
        &&
        let c = s.[!i] in
        c <> '(' && c <> ')' && c <> ';' && c <> ' ' && c <> '\t' && c <> '\n'
        && c <> '\r'
      do
        incr i
      done;
      toks := String.sub s start (!i - start) :: !toks
    end
  done;
  List.rev !toks

let read_sexp s =
  let rec read = function
    | [] -> fail "unexpected end of input"
    | "(" :: rest ->
        let rec items acc = function
          | ")" :: rest -> (L (List.rev acc), rest)
          | toks ->
              let x, rest = read toks in
              items (x :: acc) rest
        in
        items [] rest
    | ")" :: _ -> fail "unexpected )"
    | a :: rest -> (Atom a, rest)
  in
  match read (tokenize s) with
  | x, [] -> x
  | _, t :: _ -> fail "trailing input after program: %s" t

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let float_str f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let float_of_atom s =
  match s with
  | "nan" -> Expr.nan
  | "inf" -> Float.infinity
  | "-inf" -> Float.neg_infinity
  | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> fail "bad float %s" s)

let int_of_atom s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad integer %s" s

let rec pp_sexp ppf = function
  | Atom a -> Format.pp_print_string ppf a
  | L items ->
      Format.fprintf ppf "@[<hov 1>(%a)@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_space ppf ())
           pp_sexp)
        items

let unop_tag : Expr.unop -> string = function
  | Expr.Neg -> "neg"
  | Expr.Sqrt -> "sqrt"
  | Expr.Exp -> "exp"
  | Expr.Log -> "log"
  | Expr.Sin -> "sin"
  | Expr.Cos -> "cos"
  | Expr.Abs -> "abs"
  | Expr.Floor -> "floor"
  | Expr.Not -> "not"
  | Expr.Hashrand -> "hashrand"

let binop_tag : Expr.binop -> string = function
  | Expr.Add -> "add"
  | Expr.Sub -> "sub"
  | Expr.Mul -> "mul"
  | Expr.Div -> "div"
  | Expr.Pow -> "pow"
  | Expr.Min -> "min"
  | Expr.Max -> "max"
  | Expr.Lt -> "lt"
  | Expr.Le -> "le"
  | Expr.Gt -> "gt"
  | Expr.Ge -> "ge"
  | Expr.Eq -> "eq"
  | Expr.Ne -> "ne"
  | Expr.And -> "and"
  | Expr.Or -> "or"

let unops =
  Expr.[ Neg; Sqrt; Exp; Log; Sin; Cos; Abs; Floor; Not; Hashrand ]

let binops =
  Expr.[ Add; Sub; Mul; Div; Pow; Min; Max; Lt; Le; Gt; Ge; Eq; Ne; And; Or ]

let redop_tag : Prog.redop -> string = function
  | Prog.Rsum -> "sum"
  | Prog.Rprod -> "prod"
  | Prog.Rmin -> "min"
  | Prog.Rmax -> "max"

let redop_of_tag = function
  | "sum" -> Prog.Rsum
  | "prod" -> Prog.Rprod
  | "min" -> Prog.Rmin
  | "max" -> Prog.Rmax
  | t -> fail "bad reduction operator %s" t

let rec sexp_of_expr (e : Expr.t) =
  match e with
  | Expr.Const f -> L [ Atom "const"; Atom (float_str f) ]
  | Expr.Svar s -> L [ Atom "svar"; Atom s ]
  | Expr.Idx i -> L [ Atom "idx"; Atom (string_of_int i) ]
  | Expr.Ref (x, d) ->
      L
        (Atom "ref" :: Atom x
        :: List.map
             (fun o -> Atom (string_of_int o))
             (Support.Vec.to_list d))
  | Expr.Unop (op, a) -> L [ Atom (unop_tag op); sexp_of_expr a ]
  | Expr.Binop (op, a, b) ->
      L [ Atom (binop_tag op); sexp_of_expr a; sexp_of_expr b ]
  | Expr.Select (c, a, b) ->
      L [ Atom "select"; sexp_of_expr c; sexp_of_expr a; sexp_of_expr b ]

let sexp_of_region r =
  L
    (Atom "region"
    :: List.init (Region.rank r) (fun d ->
           let { Region.lo; hi } = Region.range r (d + 1) in
           L [ Atom (string_of_int lo); Atom (string_of_int hi) ]))

let rec sexp_of_stmt (s : Prog.stmt) =
  match s with
  | Prog.Astmt n ->
      L
        [
          Atom "astmt";
          sexp_of_region n.Nstmt.region;
          Atom n.Nstmt.lhs;
          L
            (Atom "off"
            :: List.map
                 (fun o -> Atom (string_of_int o))
                 (Support.Vec.to_list n.Nstmt.lhs_off));
          sexp_of_expr n.Nstmt.rhs;
        ]
  | Prog.Reduce { target; op; region; arg } ->
      L
        [
          Atom "reduce";
          Atom target;
          Atom (redop_tag op);
          sexp_of_region region;
          sexp_of_expr arg;
        ]
  | Prog.Sassign (x, e) -> L [ Atom "set"; Atom x; sexp_of_expr e ]
  | Prog.Sloop { var; lo; hi; body } ->
      L
        (Atom "for" :: Atom var
        :: Atom (string_of_int lo)
        :: Atom (string_of_int hi)
        :: List.map sexp_of_stmt body)

let sexp_of_prog (p : Prog.t) =
  L
    [
      Atom "program";
      Atom p.Prog.name;
      L
        (Atom "arrays"
        :: List.map
             (fun (a : Prog.array_info) ->
               L
                 (Atom a.name
                 :: Atom
                      (match a.kind with
                      | Prog.User -> "user"
                      | Prog.Compiler -> "compiler")
                 :: List.init (Region.rank a.bounds) (fun d ->
                        let { Region.lo; hi } = Region.range a.bounds (d + 1) in
                        L [ Atom (string_of_int lo); Atom (string_of_int hi) ])))
             p.Prog.arrays);
      L
        (Atom "scalars"
        :: List.map
             (fun (s, v) -> L [ Atom s; Atom (float_str v) ])
             p.Prog.scalars);
      L (Atom "live" :: List.map (fun s -> Atom s) p.Prog.live_out);
      L (Atom "body" :: List.map sexp_of_stmt p.Prog.body);
    ]

let to_string ?comment p =
  let header =
    match comment with
    | None -> ""
    | Some c ->
        (String.split_on_char '\n' c
        |> List.map (fun l -> "; " ^ l)
        |> String.concat "\n")
        ^ "\n"
  in
  header ^ Format.asprintf "%a@." pp_sexp (sexp_of_prog p)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let atom = function Atom a -> a | L _ -> fail "expected atom"

let region_of_sexp = function
  | L (Atom "region" :: dims) ->
      Region.of_bounds
        (List.map
           (function
             | L [ Atom lo; Atom hi ] -> (int_of_atom lo, int_of_atom hi)
             | _ -> fail "bad region dimension")
           dims)
  | _ -> fail "expected (region ...)"

let rec expr_of_sexp = function
  | L [ Atom "const"; Atom f ] -> Expr.Const (float_of_atom f)
  | L [ Atom "svar"; Atom s ] -> Expr.Svar s
  | L [ Atom "idx"; Atom i ] -> Expr.Idx (int_of_atom i)
  | L (Atom "ref" :: Atom x :: offs) ->
      Expr.Ref
        (x, Support.Vec.of_list (List.map (fun o -> int_of_atom (atom o)) offs))
  | L [ Atom "select"; c; a; b ] ->
      Expr.Select (expr_of_sexp c, expr_of_sexp a, expr_of_sexp b)
  | L [ Atom tag; a ] -> (
      match List.find_opt (fun op -> unop_tag op = tag) unops with
      | Some op -> Expr.Unop (op, expr_of_sexp a)
      | None -> fail "unknown unary operator %s" tag)
  | L [ Atom tag; a; b ] -> (
      match List.find_opt (fun op -> binop_tag op = tag) binops with
      | Some op -> Expr.Binop (op, expr_of_sexp a, expr_of_sexp b)
      | None -> fail "unknown binary operator %s" tag)
  | L (Atom tag :: _) -> fail "malformed expression %s" tag
  | _ -> fail "malformed expression"

let rec stmt_of_sexp = function
  | L [ Atom "astmt"; region; Atom lhs; L (Atom "off" :: offs); rhs ] -> (
      let region = region_of_sexp region in
      let lhs_off =
        Support.Vec.of_list (List.map (fun o -> int_of_atom (atom o)) offs)
      in
      let rhs = expr_of_sexp rhs in
      match Nstmt.make ~region ~lhs ~lhs_off rhs with
      | n -> Prog.Astmt n
      | exception Invalid_argument m -> fail "%s" m)
  | L [ Atom "reduce"; Atom target; Atom op; region; arg ] ->
      Prog.Reduce
        {
          target;
          op = redop_of_tag op;
          region = region_of_sexp region;
          arg = expr_of_sexp arg;
        }
  | L [ Atom "set"; Atom x; e ] -> Prog.Sassign (x, expr_of_sexp e)
  | L (Atom "for" :: Atom var :: Atom lo :: Atom hi :: body) ->
      Prog.Sloop
        {
          var;
          lo = int_of_atom lo;
          hi = int_of_atom hi;
          body = List.map stmt_of_sexp body;
        }
  | L (Atom tag :: _) -> fail "unknown statement %s" tag
  | _ -> fail "malformed statement"

let prog_of_sexp = function
  | L
      [
        Atom "program";
        Atom name;
        L (Atom "arrays" :: arrays);
        L (Atom "scalars" :: scalars);
        L (Atom "live" :: live);
        L (Atom "body" :: body);
      ] ->
      {
        Prog.name;
        arrays =
          List.map
            (function
              | L (Atom name :: Atom kind :: dims) ->
                  {
                    Prog.name;
                    bounds =
                      Region.of_bounds
                        (List.map
                           (function
                             | L [ Atom lo; Atom hi ] ->
                                 (int_of_atom lo, int_of_atom hi)
                             | _ -> fail "bad array bounds")
                           dims);
                    kind =
                      (match kind with
                      | "user" -> Prog.User
                      | "compiler" -> Prog.Compiler
                      | k -> fail "bad array kind %s" k);
                  }
              | _ -> fail "malformed array declaration")
            arrays;
        scalars =
          List.map
            (function
              | L [ Atom s; Atom v ] -> (s, float_of_atom v)
              | _ -> fail "malformed scalar declaration")
            scalars;
        live_out = List.map atom live;
        body = List.map stmt_of_sexp body;
      }
  | _ -> fail "expected (program NAME (arrays ...) (scalars ...) (live ...) (body ...))"

let of_string s =
  match prog_of_sexp (read_sexp s) with
  | p -> Ok p
  | exception Parse m -> Error m

let save ~path ?comment p =
  let oc = open_out path in
  output_string oc (to_string ?comment p);
  close_out oc

let load path =
  match open_in path with
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s
  | exception Sys_error m -> Error m
