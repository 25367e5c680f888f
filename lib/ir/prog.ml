type array_kind = User | Compiler

type array_info = {
  name : string;
  bounds : Region.t;
  kind : array_kind;
}

type redop = Rsum | Rprod | Rmin | Rmax

type stmt =
  | Astmt of Nstmt.t
  | Reduce of { target : string; op : redop; region : Region.t; arg : Expr.t }
  | Sassign of string * Expr.t
  | Sloop of { var : string; lo : int; hi : int; body : stmt list }

type t = {
  name : string;
  arrays : array_info list;
  scalars : (string * float) list;
  body : stmt list;
  live_out : string list;
}

let find_array t x = List.find_opt (fun (a : array_info) -> a.name = x) t.arrays
let array_names t = List.map (fun (a : array_info) -> a.name) t.arrays
let is_live_out t x = List.mem x t.live_out

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let check_ref t region (x, off) =
  match find_array t x with
  | None -> Error (Printf.sprintf "undeclared array %s" x)
  | Some info ->
      if Support.Vec.rank off <> Region.rank region then
        Error (Printf.sprintf "reference %s: offset rank mismatch" x)
      else if Region.rank info.bounds <> Region.rank region then
        Error
          (Printf.sprintf "reference %s: array rank %d, statement rank %d" x
             (Region.rank info.bounds) (Region.rank region))
      else if not (Region.contains info.bounds (Region.shift region off)) then
        Error
          (Printf.sprintf "reference %s%s over %s escapes bounds %s" x
             (Support.Vec.to_string off) (Region.to_string region)
             (Region.to_string info.bounds))
      else Ok ()

let rec check_all f = function
  | [] -> Ok ()
  | x :: tl -> ( match f x with Ok () -> check_all f tl | e -> e)

let check_scalars_in_scope scope e =
  check_all
    (fun s ->
      if List.mem s scope then Ok ()
      else Error (Printf.sprintf "undeclared scalar %s" s))
    (Expr.svars e)

let validate t =
  let rec go scope = function
    | [] -> Ok ()
    | Astmt s :: tl -> (
        if Region.is_empty s.Nstmt.region then
          Error (Printf.sprintf "empty region in %s" (Nstmt.to_string s))
        else
          let refs =
            ((s.Nstmt.lhs, s.Nstmt.lhs_off) :: Expr.refs s.Nstmt.rhs)
          in
          match check_all (check_ref t s.Nstmt.region) refs with
          | Error _ as e -> e
          | Ok () -> (
              match check_scalars_in_scope scope s.Nstmt.rhs with
              | Error _ as e -> e
              | Ok () -> go scope tl))
    | Reduce { target; region; arg; _ } :: tl -> (
        if not (List.mem target scope) then
          Error (Printf.sprintf "undeclared reduction target %s" target)
        else if List.mem target (Expr.svars arg) then
          (* the accumulator is not defined during the sweep: executors
             disagree on whether a self-read sees the old value or the
             running partial result *)
          Error
            (Printf.sprintf "reduction into %s reads its own target" target)
        else if not (Expr.rank_consistent ~rank:(Region.rank region) arg) then
          Error
            (Printf.sprintf
               "reduction into %s: argument index of mismatched rank" target)
        else
          match check_all (check_ref t region) (Expr.refs arg) with
          | Error _ as e -> e
          | Ok () -> (
              match check_scalars_in_scope scope arg with
              | Error _ as e -> e
              | Ok () -> go scope tl))
    | Sassign (x, e) :: tl ->
        if not (List.mem x scope) then
          Error (Printf.sprintf "undeclared scalar %s" x)
        else if Expr.refs e <> [] then
          Error
            (Printf.sprintf "scalar assignment to %s references an array" x)
        else if Expr.has_idx e then
          Error
            (Printf.sprintf
               "scalar assignment to %s references a region index" x)
        else (
          match check_scalars_in_scope scope e with
          | Error _ as e -> e
          | Ok () -> go scope tl)
    | Sloop { var; body; _ } :: tl -> (
        match go (var :: scope) body with
        | Error _ as e -> e
        | Ok () -> go scope tl)
  in
  let dup names =
    let sorted = List.sort compare names in
    let rec first_dup = function
      | a :: b :: _ when a = b -> Some a
      | _ :: tl -> first_dup tl
      | [] -> None
    in
    first_dup sorted
  in
  match dup (array_names t @ List.map fst t.scalars) with
  | Some d -> Error (Printf.sprintf "duplicate declaration %s" d)
  | None -> go (List.map fst t.scalars) t.body

(* ------------------------------------------------------------------ *)
(* Basic blocks                                                        *)
(* ------------------------------------------------------------------ *)

type reduction = {
  index : int;
  target : string;
  op : redop;
  region : Region.t;
  arg : Expr.t;
}

type block = { index : int; stmts : Nstmt.t list; trailing : reduction list }

type node =
  | Block of block
  | Reduction of reduction
  | Scalar of string * Expr.t
  | Loop of { var : string; lo : int; hi : int; body : node list }

let redop_init = function
  | Rsum -> 0.0
  | Rprod -> 1.0
  | Rmin -> infinity
  | Rmax -> neg_infinity

let redop_binop : redop -> Expr.binop = function
  | Rsum -> Expr.Add
  | Rprod -> Expr.Mul
  | Rmin -> Expr.Min
  | Rmax -> Expr.Max

(* The one owner of the block decision.  Each statement list is walked
   once, in execution-syntax order: a maximal Astmt run is the next
   block, the reductions right after it are its trailing ones, and a
   loop body is numbered where the loop stands, before the statements
   that follow the loop. *)
let skeleton t =
  let n_blocks = ref 0 and n_reductions = ref 0 in
  let reduction target op region arg =
    let index = !n_reductions in
    incr n_reductions;
    { index; target; op; region; arg }
  in
  let rec run acc = function
    | Astmt s :: tl -> run (s :: acc) tl
    | tl -> (List.rev acc, tl)
  in
  let rec trail acc = function
    | Reduce { target; op; region; arg } :: tl ->
        let r = reduction target op region arg in
        trail (r :: acc) tl
    | tl -> (List.rev acc, tl)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | Astmt _ :: _ as l ->
        let stmts, tl = run [] l in
        let index = !n_blocks in
        incr n_blocks;
        let trailing, tl = trail [] tl in
        go (Block { index; stmts; trailing } :: acc) tl
    | Reduce { target; op; region; arg } :: tl ->
        let r = reduction target op region arg in
        go (Reduction r :: acc) tl
    | Sassign (x, e) :: tl -> go (Scalar (x, e) :: acc) tl
    | Sloop { var; lo; hi; body } :: tl ->
        let body = go [] body in
        go (Loop { var; lo; hi; body } :: acc) tl
  in
  go [] t.body

let rec fold f acc nodes =
  List.fold_left
    (fun acc n ->
      let acc = f acc n in
      match n with Loop { body; _ } -> fold f acc body | _ -> acc)
    acc nodes

let skeleton_blocks sk =
  List.rev (fold (fun acc -> function Block b -> b :: acc | _ -> acc) [] sk)

let blocks t = List.map (fun b -> b.stmts) (skeleton_blocks (skeleton t))

let reductions t =
  List.rev
    (fold
       (fun acc -> function
         | Block b -> List.rev_append b.trailing acc
         | Reduction r -> r :: acc
         | Scalar _ | Loop _ -> acc)
       [] (skeleton t))

let reduce_stmt (r : reduction) =
  Reduce { target = r.target; op = r.op; region = r.region; arg = r.arg }

let map_blocks f t =
  let rec stmts nodes =
    List.concat_map
      (function
        | Block b -> f b.index b.stmts @ List.map reduce_stmt b.trailing
        | Reduction r -> [ reduce_stmt r ]
        | Scalar (x, e) -> [ Sassign (x, e) ]
        | Loop { var; lo; hi; body } ->
            [ Sloop { var; lo; hi; body = stmts body } ])
      nodes
  in
  { t with body = stmts (skeleton t) }

(* The blocks whose statements reference array [x], and one entry per
   reduction reading [x]: [Some b] when it trails block [b], [None]
   when it stands alone. *)
let references sk x =
  let reads (r : reduction) = List.mem x (Expr.ref_names r.arg) in
  fold
    (fun (bs, readers) -> function
      | Block b ->
          let bs =
            if List.exists (fun s -> List.mem x (Nstmt.arrays s)) b.stmts then
              b.index :: bs
            else bs
          in
          ( bs,
            List.fold_left
              (fun rs r -> if reads r then Some b.index :: rs else rs)
              readers b.trailing )
      | Reduction r -> (bs, if reads r then None :: readers else readers)
      | Scalar _ | Loop _ -> (bs, readers))
    ([], []) sk

let confined ~allow t sk =
  List.filter_map
    (fun (info : array_info) ->
      let x = info.name in
      if is_live_out t x then None
      else
        match references sk x with
        | [ b ], readers when List.for_all (allow b) readers -> Some (x, b)
        | _ -> None)
    t.arrays

let confined_arrays t = confined ~allow:(fun _ _ -> false) t (skeleton t)
let confined_arrays_allowing_reduces = confined ~allow:(fun b r -> r = Some b)

let static_array_counts t =
  List.fold_left
    (fun (c, u) a ->
      match a.kind with Compiler -> (c + 1, u) | User -> (c, u + 1))
    (0, 0) t.arrays

let rename_array t ~old ~new_ =
  let rn x = if x = old then new_ else x in
  let rec go_stmt = function
    | Astmt s -> Astmt (Nstmt.rename rn s)
    | Reduce r ->
        Reduce
          { r with arg = Expr.map_refs (fun x d -> Expr.Ref (rn x, d)) r.arg }
    | Sassign _ as s -> s
    | Sloop l -> Sloop { l with body = List.map go_stmt l.body }
  in
  {
    t with
    arrays =
      List.map (fun (a : array_info) -> { a with name = rn a.name }) t.arrays;
    body = List.map go_stmt t.body;
    live_out = List.map rn t.live_out;
  }

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* Canonical content hash over the normalized AST, through the same
   Support.Hash64 mixer as the executors' live-out digest.  Every
   semantic component is folded in with an explicit constructor tag —
   never [Hashtbl.hash], whose value is not specified across compiler
   versions — so the fingerprint is stable: a golden test locks it.
   The program [name] is deliberately excluded (it is reporting
   metadata, and two textually renamed but identical programs must
   share a zapd plan-cache entry). *)

module H = Support.Hash64

let unop_tag : Expr.unop -> int = function
  | Expr.Neg -> 0
  | Expr.Sqrt -> 1
  | Expr.Exp -> 2
  | Expr.Log -> 3
  | Expr.Sin -> 4
  | Expr.Cos -> 5
  | Expr.Abs -> 6
  | Expr.Floor -> 7
  | Expr.Not -> 8
  | Expr.Hashrand -> 9

let binop_tag : Expr.binop -> int = function
  | Expr.Add -> 0
  | Expr.Sub -> 1
  | Expr.Mul -> 2
  | Expr.Div -> 3
  | Expr.Pow -> 4
  | Expr.Min -> 5
  | Expr.Max -> 6
  | Expr.Lt -> 7
  | Expr.Le -> 8
  | Expr.Gt -> 9
  | Expr.Ge -> 10
  | Expr.Eq -> 11
  | Expr.Ne -> 12
  | Expr.And -> 13
  | Expr.Or -> 14

let redop_tag = function Rsum -> 0 | Rprod -> 1 | Rmin -> 2 | Rmax -> 3

let mix_vec h v =
  List.fold_left H.mix_int (H.mix_int h (Support.Vec.rank v))
    (Support.Vec.to_list v)

let mix_region h (r : Region.t) =
  Array.fold_left
    (fun h ({ lo; hi } : Region.range) -> H.mix_int (H.mix_int h lo) hi)
    (H.mix_int h (Region.rank r))
    r

let rec mix_expr h : Expr.t -> H.t = function
  | Expr.Const f -> H.mix_float (H.mix_int h 1) f
  | Expr.Svar s -> H.mix_string (H.mix_int h 2) s
  | Expr.Ref (x, d) -> mix_vec (H.mix_string (H.mix_int h 3) x) d
  | Expr.Idx i -> H.mix_int (H.mix_int h 4) i
  | Expr.Unop (op, e) -> mix_expr (H.mix_int (H.mix_int h 5) (unop_tag op)) e
  | Expr.Binop (op, a, b) ->
      mix_expr (mix_expr (H.mix_int (H.mix_int h 6) (binop_tag op)) a) b
  | Expr.Select (c, a, b) -> mix_expr (mix_expr (mix_expr (H.mix_int h 7) c) a) b

let rec mix_stmt h = function
  | Astmt (s : Nstmt.t) ->
      mix_expr
        (mix_vec
           (H.mix_string (mix_region (H.mix_int h 1) s.Nstmt.region) s.Nstmt.lhs)
           s.Nstmt.lhs_off)
        s.Nstmt.rhs
  | Reduce { target; op; region; arg } ->
      mix_expr
        (H.mix_string
           (mix_region (H.mix_int (H.mix_int h 2) (redop_tag op)) region)
           target)
        arg
  | Sassign (x, e) -> mix_expr (H.mix_string (H.mix_int h 3) x) e
  | Sloop { var; lo; hi; body } ->
      mix_stmts
        (H.mix_int (H.mix_int (H.mix_string (H.mix_int h 4) var) lo) hi)
        body

and mix_stmts h body =
  List.fold_left mix_stmt (H.mix_int h (List.length body)) body

let fingerprint t =
  let h = H.mix_int H.empty (List.length t.arrays) in
  let h =
    List.fold_left
      (fun h (a : array_info) ->
        mix_region
          (H.mix_int (H.mix_string h a.name)
             (match a.kind with User -> 0 | Compiler -> 1))
          a.bounds)
      h t.arrays
  in
  let h = H.mix_int h (List.length t.scalars) in
  let h =
    List.fold_left
      (fun h (s, v) -> H.mix_float (H.mix_string h s) v)
      h t.scalars
  in
  let h = mix_stmts h t.body in
  let h = H.mix_int h (List.length t.live_out) in
  let h = List.fold_left H.mix_string h t.live_out in
  H.to_hex h

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_redop ppf op =
  Format.pp_print_string ppf
    (match op with Rsum -> "+<<" | Rprod -> "*<<" | Rmin -> "min<<" | Rmax -> "max<<")

let rec pp_stmt indent ppf s =
  let pad = String.make indent ' ' in
  match s with
  | Astmt s -> Format.fprintf ppf "%s%a;" pad Nstmt.pp s
  | Reduce { target; op; region; arg } ->
      Format.fprintf ppf "%s%s := %a %a %a;" pad target pp_redop op Region.pp
        region Expr.pp arg
  | Sassign (x, e) -> Format.fprintf ppf "%s%s := %a;" pad x Expr.pp e
  | Sloop { var; lo; hi; body } ->
      Format.fprintf ppf "%sfor %s := %d to %d do@\n%a@\n%send;" pad var lo hi
        (pp_body (indent + 2))
        body pad

and pp_body indent ppf body =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    (pp_stmt indent) ppf body

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s;@," t.name;
  List.iter
    (fun (a : array_info) ->
      Format.fprintf ppf "var %s : %a%s;@," a.name Region.pp a.bounds
        (match a.kind with Compiler -> "  /* compiler temp */" | User -> ""))
    t.arrays;
  List.iter
    (fun (s, v) -> Format.fprintf ppf "scalar %s := %g;@," s v)
    t.scalars;
  Format.fprintf ppf "begin@,%a@,end. /* live out: %s */@]"
    (pp_body 2) t.body
    (String.concat ", " t.live_out)

let to_string t = Format.asprintf "%a" pp t
