open Sir

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable iters : int;
}

exception Runtime_error of string

type arr = {
  data : float array;
  dims : (int * int) array;
  strides : int array;
  base : int;  (** element base address of this allocation *)
}

(* Every scalar name the program mentions owns one slot.  A loop
   variable's slot is also mirrored as an int in [ints] while its loop
   runs. *)
type scalars = {
  slots : (string, int) Hashtbl.t;
  values : float array;
  defined : bool array;
  ints : int array;
}

type result = {
  arrays : (string, arr) Hashtbl.t;
  scalars : scalars;
  live_out : string list;
  cnt : counters;
}

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let mk_arr base (a : Code.alloc) =
  let n = Array.length a.dims in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    let lo, hi = a.dims.(d + 1) in
    strides.(d) <- strides.(d + 1) * max 0 (hi - lo + 1)
  done;
  {
    data = Array.make (max 1 (Code.alloc_volume a)) 0.0;
    dims = a.dims;
    strides;
    base;
  }

let undefined_array name = err "undefined (or contracted) array %s" name

(* Loads and flops one evaluation of [e] performs.  Static: Select
   evaluates both arms and a raise ends the run. *)
let rec cost (e : Code.expr) =
  match e with
  | Const _ | Scalar _ -> (0, 0)
  | Load _ -> (1, 0)
  | Unop (_, a) ->
      let l, f = cost a in
      (l, f + 1)
  | Binop (op, a, b) ->
      let la, fa = cost a and lb, fb = cost b in
      (la + lb, fa + fb + Bool.to_int (Ir.Expr.is_flop op))
  | Select (c, a, b) ->
      let lc, fc = cost c and la, fa = cost a and lb, fb = cost b in
      (lc + la + lb, fc + fa + fb)

(* ------------------------------------------------------------------ *)
(* Resolve: names to slots, statements to closures                     *)
(* ------------------------------------------------------------------ *)

(* Slots for every scalar name [p] mentions, initialized from its
   declarations; [assigned] holds the names some [Sassign] writes. *)
let scalar_slots (p : Code.program) =
  let slots = Hashtbl.create 16 and assigned = Hashtbl.create 16 in
  let slot x =
    if not (Hashtbl.mem slots x) then Hashtbl.add slots x (Hashtbl.length slots)
  in
  let subs =
    Array.iter (fun (s : Code.subscript) -> if s.base <> "" then slot s.base)
  in
  let rec expr : Code.expr -> unit = function
    | Const _ -> ()
    | Scalar x -> slot x
    | Load (_, ss) -> subs ss
    | Unop (_, a) -> expr a
    | Binop (_, a, b) -> List.iter expr [ a; b ]
    | Select (c, a, b) -> List.iter expr [ c; a; b ]
  in
  let rec stmt : Code.stmt -> unit = function
    | Sassign (x, e) ->
        slot x;
        Hashtbl.replace assigned x ();
        expr e
    | Store (_, ss, e) ->
        subs ss;
        expr e
    | For { var; body; _ } ->
        slot var;
        List.iter stmt body
  in
  List.iter (fun (x, _) -> slot x) p.scalars;
  List.iter stmt p.body;
  let n = Hashtbl.length slots in
  let sc =
    {
      slots;
      values = Array.make n 0.0;
      defined = Array.make n false;
      ints = Array.make n 0;
    }
  in
  List.iter
    (fun (x, v) ->
      let k = Hashtbl.find slots x in
      sc.values.(k) <- v;
      sc.defined.(k) <- true)
    p.scalars;
  (sc, assigned)

type env = {
  res : result;
  assigned : (string, unit) Hashtbl.t;
  loops : string list;  (** variables of the enclosing loops: always defined *)
  trace : (addr:int -> write:bool -> unit) option;
}

(* A slot defined before the run (a declared scalar) stays defined, and
   so is the variable of an enclosing loop; any other read is checked. *)
let scalar env x =
  let { slots; values; defined; _ } = env.res.scalars in
  let k = Hashtbl.find slots x in
  if defined.(k) || List.mem x env.loops then fun () -> values.(k)
  else fun () ->
    if not defined.(k) then err "undefined scalar %s" x;
    values.(k)

(* A loop variable no [Sassign] writes is integral inside its loop, so
   subscripts read its int mirror. *)
let subscript env (s : Code.subscript) : unit -> int =
  let off = s.off in
  if s.base = "" then fun () -> off
  else if List.mem s.base env.loops && not (Hashtbl.mem env.assigned s.base) then
    let { slots; ints; _ } = env.res.scalars in
    let k = Hashtbl.find slots s.base in
    fun () -> ints.(k) + off
  else
    let v = scalar env s.base in
    fun () -> int_of_float (v ()) + off

(* Row-major offset of a reference: the sum of one checked share per
   dimension.  Errors come out as if every subscript were evaluated
   before the rank and bounds checks. *)
let index name arr (subs : (unit -> int) array) : unit -> int =
  let n = Array.length arr.dims in
  let eval_all () = Array.iter (fun s -> ignore (s ())) subs in
  if Array.length subs <> n then fun () ->
    eval_all ();
    err "%s: rank %d subscript on rank %d array" name (Array.length subs) n
  else
    let share d =
      let s = subs.(d) and lo, hi = arr.dims.(d) and stride = arr.strides.(d) in
      fun () ->
        let x = s () in
        if x < lo || x > hi then begin
          eval_all ();
          err "%s: subscript %d out of bounds [%d..%d] in dim %d" name x lo hi
            (d + 1)
        end;
        (x - lo) * stride
    in
    match Array.init n share with
    | [| share |] -> share
    | shares ->
        fun () ->
          let flat = ref 0 in
          for d = 0 to n - 1 do
            flat := !flat + shares.(d) ()
          done;
          !flat

let rec expr env (e : Code.expr) : unit -> float =
  match e with
  | Const f -> fun () -> f
  | Scalar x -> scalar env x
  | Load (x, subs) -> (
      match Hashtbl.find_opt env.res.arrays x with
      | None -> fun () -> undefined_array x
      | Some arr -> (
          let index = index x arr (Array.map (subscript env) subs) in
          let data = arr.data in
          match env.trace with
          | None -> fun () -> data.(index ())
          | Some touch ->
              let base = arr.base in
              fun () ->
                let i = index () in
                touch ~addr:((base + i) * 8) ~write:false;
                data.(i)))
  | Unop (op, a) ->
      let a = expr env a in
      fun () -> Ir.Expr.apply_unop op (a ())
  | Binop (op, a, b) -> (
      let a = expr env a and b = expr env b in
      (* [a] runs before [b]: either may trace loads or raise *)
      match op with
      | Add ->
          fun () ->
            let va = a () in
            va +. b ()
      | Sub ->
          fun () ->
            let va = a () in
            va -. b ()
      | Mul ->
          fun () ->
            let va = a () in
            va *. b ()
      | Div ->
          fun () ->
            let va = a () in
            va /. b ()
      | _ ->
          fun () ->
            let va = a () in
            Ir.Expr.apply_binop op va (b ()))
  | Select (c, a, b) ->
      (* both arms are evaluated: elementwise Select is a blend, not
         control flow, matching array-language semantics *)
      let c = expr env c and a = expr env a and b = expr env b in
      fun () ->
        let vc = c () in
        let va = a () in
        let vb = b () in
        if vc <> 0.0 then va else vb

let rec stmt env (s : Code.stmt) : unit -> unit =
  let cnt = env.res.cnt in
  match s with
  | Sassign (x, e) ->
      let v = expr env e and loads, flops = cost e in
      let { slots; values; defined; _ } = env.res.scalars in
      let k = Hashtbl.find slots x in
      fun () ->
        values.(k) <- v ();
        defined.(k) <- true;
        cnt.loads <- cnt.loads + loads;
        cnt.flops <- cnt.flops + flops
  | Store (x, subs, e) -> (
      let v = expr env e and loads, flops = cost e in
      match Hashtbl.find_opt env.res.arrays x with
      | None ->
          fun () ->
            ignore (v ());
            undefined_array x
      | Some arr -> (
          let index = index x arr (Array.map (subscript env) subs) in
          let data = arr.data in
          let store v i =
            cnt.loads <- cnt.loads + loads;
            cnt.flops <- cnt.flops + flops;
            cnt.stores <- cnt.stores + 1;
            cnt.iters <- cnt.iters + 1;
            data.(i) <- v
          in
          match env.trace with
          | None ->
              fun () ->
                let v = v () in
                store v (index ())
          | Some touch ->
              let base = arr.base in
              fun () ->
                let v = v () in
                let i = index () in
                touch ~addr:((base + i) * 8) ~write:true;
                store v i))
  | For { var; lo; hi; step; body } ->
      let body = block { env with loops = var :: env.loops } body in
      let { slots; values; defined; ints } = env.res.scalars in
      let k = Hashtbl.find slots var in
      let iteration i =
        ints.(k) <- i;
        values.(k) <- float_of_int i;
        body ()
      in
      if step >= 0 then fun () ->
        if lo <= hi then defined.(k) <- true;
        for i = lo to hi do
          iteration i
        done
      else fun () ->
        if lo <= hi then defined.(k) <- true;
        for i = hi downto lo do
          iteration i
        done

and block env stmts =
  match Array.of_list (List.map (stmt env) stmts) with
  | [| s |] -> s
  | ss ->
      fun () ->
        for j = 0 to Array.length ss - 1 do
          ss.(j) ()
        done

let resolve ?trace (p : Code.program) =
  let arrays = Hashtbl.create 16 in
  let base = ref 0 in
  List.iter
    (fun (a : Code.alloc) ->
      Hashtbl.replace arrays a.name (mk_arr !base a);
      (* pad allocations apart so distinct arrays never share a line *)
      base := !base + Code.alloc_volume a + 8)
    p.allocs;
  let scalars, assigned = scalar_slots p in
  let cnt = { loads = 0; stores = 0; flops = 0; iters = 0 } in
  let res = { arrays; scalars; live_out = p.live_out; cnt } in
  (res, block { res; assigned; loops = []; trace } p.body)

let run ?trace (p : Code.program) =
  let res =
    Obs.span "interpret" (fun () ->
        let res, exec = resolve ?trace p in
        exec ();
        res)
  in
  if Obs.enabled () then begin
    Obs.count "interp.loads" res.cnt.loads;
    Obs.count "interp.stores" res.cnt.stores;
    Obs.count "interp.element-refs" (res.cnt.loads + res.cnt.stores);
    Obs.count "interp.flops" res.cnt.flops;
    Obs.count "interp.iters" res.cnt.iters
  end;
  res

let counters r = r.cnt

let find_scalar r name =
  match Hashtbl.find_opt r.scalars.slots name with
  | Some k when r.scalars.defined.(k) -> Some r.scalars.values.(k)
  | _ -> None

let get_scalar r name =
  match find_scalar r name with
  | Some v -> v
  | None -> err "undefined scalar %s" name

let get_array r name =
  match Hashtbl.find_opt r.arrays name with
  | Some a -> Array.copy a.data
  | None -> undefined_array name

let read_point r name idx =
  match Hashtbl.find_opt r.arrays name with
  | Some a -> a.data.(index name a (Array.map (fun x () -> x) idx) ())
  | None -> undefined_array name

(* The shared mixer lives in Support.Hash64 (NaN canonicalization
   included) so non-float hashes — Ir.Prog.fingerprint, the zapd cache
   key — use the same algebra; this alias keeps the executor-facing
   name and the float-only surface. *)
module Digest = struct
  type t = Support.Hash64.t

  let empty = Support.Hash64.empty
  let mix = Support.Hash64.mix_float
  let to_hex = Support.Hash64.to_hex
end

let checksum r =
  let digest = ref Digest.empty in
  let mix v = digest := Digest.mix !digest v in
  List.iter
    (fun name ->
      match Hashtbl.find_opt r.arrays name with
      | Some a -> Array.iter mix a.data
      | None -> (
          match find_scalar r name with
          | Some v -> mix v
          | None -> err "live-out %s not found" name))
    r.live_out;
  Digest.to_hex !digest

let footprint_bytes p = 8 * Code.program_elements p
