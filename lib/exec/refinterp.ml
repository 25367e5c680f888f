open Ir

type arr = {
  data : float array;
  bounds : Region.t;
  strides : int array;
}

type result = {
  arrays : (string, arr) Hashtbl.t;
  scalars : (string, float) Hashtbl.t;
  live_out : string list;
}

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let mk_arr bounds =
  let n = Region.rank bounds in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * Region.extent bounds (d + 2)
  done;
  { data = Array.make (max 1 (Region.volume bounds)) 0.0; bounds; strides }

let flat name a idx =
  let n = Array.length a.strides in
  let f = ref 0 in
  for d = 0 to n - 1 do
    let { Region.lo; hi } = Region.range a.bounds (d + 1) in
    let x = idx.(d) in
    if x < lo || x > hi then
      err "%s: index %d outside [%d..%d] in dim %d" name x lo hi (d + 1);
    f := !f + ((x - lo) * a.strides.(d))
  done;
  !f

let find_arr r name =
  match Hashtbl.find_opt r.arrays name with
  | Some a -> a
  | None -> err "undeclared array %s" name

let get_scalar_tbl r name =
  match Hashtbl.find_opt r.scalars name with
  | Some v -> v
  | None -> err "undefined scalar %s" name

(* Evaluate an elementwise expression at index point [idx]. *)
let rec eval r idx (e : Expr.t) : float =
  match e with
  | Expr.Const f -> f
  | Expr.Svar s -> get_scalar_tbl r s
  | Expr.Idx i ->
      if i < 1 || i > Array.length idx then
        err "idx%d read outside a rank-%d iteration context" i
          (Array.length idx);
      float_of_int idx.(i - 1)
  | Expr.Ref (x, d) ->
      if Array.length idx <> Support.Vec.rank d then
        err "array %s referenced in a rank-%d context (offset rank %d)" x
          (Array.length idx) (Support.Vec.rank d);
      let a = find_arr r x in
      let shifted = Array.init (Array.length idx) (fun k -> idx.(k) + d.(k)) in
      a.data.(flat x a shifted)
  | Expr.Unop (op, e1) -> Ir.Expr.apply_unop op (eval r idx e1)
  | Expr.Binop (op, e1, e2) ->
      let v1 = eval r idx e1 in
      let v2 = eval r idx e2 in
      Ir.Expr.apply_binop op v1 v2
  | Expr.Select (c, a, b) ->
      let vc = eval r idx c in
      let va = eval r idx a in
      let vb = eval r idx b in
      if vc <> 0.0 then va else vb

let exec_astmt r (s : Nstmt.t) =
  let a = find_arr r s.lhs in
  Region.iter s.region (fun idx ->
      let v = eval r idx s.rhs in
      let tgt = Array.init (Array.length idx) (fun k -> idx.(k) + s.lhs_off.(k)) in
      a.data.(flat s.lhs a tgt) <- v)

let red_init : Prog.redop -> float = function
  | Prog.Rsum -> 0.0
  | Prog.Rprod -> 1.0
  | Prog.Rmin -> infinity
  | Prog.Rmax -> neg_infinity

let red_apply : Prog.redop -> float -> float -> float = function
  | Prog.Rsum -> ( +. )
  | Prog.Rprod -> ( *. )
  | Prog.Rmin -> Expr.fmin
  | Prog.Rmax -> Expr.fmax

let rec exec r (s : Prog.stmt) =
  match s with
  | Prog.Astmt a -> exec_astmt r a
  | Prog.Reduce { target; op; region; arg } ->
      let acc = ref (red_init op) in
      let apply = red_apply op in
      Region.iter region (fun idx -> acc := apply !acc (eval r idx arg));
      Hashtbl.replace r.scalars target !acc
  | Prog.Sassign (x, e) ->
      Hashtbl.replace r.scalars x (eval r [||] e)
  | Prog.Sloop { var; lo; hi; body } ->
      for i = lo to hi do
        Hashtbl.replace r.scalars var (float_of_int i);
        List.iter (exec r) body
      done

let run (p : Prog.t) =
  let r =
    {
      arrays = Hashtbl.create 16;
      scalars = Hashtbl.create 16;
      live_out = p.live_out;
    }
  in
  List.iter
    (fun (a : Prog.array_info) ->
      Hashtbl.replace r.arrays a.name (mk_arr a.bounds))
    p.arrays;
  List.iter (fun (s, v) -> Hashtbl.replace r.scalars s v) p.scalars;
  List.iter (exec r) p.body;
  r

let get_scalar = get_scalar_tbl

let get_array r name =
  match Hashtbl.find_opt r.arrays name with
  | Some a -> Array.copy a.data
  | None -> err "undeclared array %s" name

(* Identical digest to Interp.checksum so the two interpreters are
   directly comparable. *)
let checksum r =
  Interp.Digest.to_hex
    (List.fold_left
       (fun d name ->
         match Hashtbl.find_opt r.arrays name with
         | Some a -> Interp.Digest.mix_array d a.data
         | None -> (
             match Hashtbl.find_opt r.scalars name with
             | Some v -> Interp.Digest.mix d v
             | None -> err "live-out %s not found" name))
       Interp.Digest.empty r.live_out)
