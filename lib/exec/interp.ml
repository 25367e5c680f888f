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

let mk_arr base dims data =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    let lo, hi = dims.(d + 1) in
    strides.(d) <- strides.(d + 1) * max 0 (hi - lo + 1)
  done;
  { data; dims; strides; base }

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

(* Iterations per strip (see [strips]). *)
let strip = 256

(* Dense strip buffers.  Innermost loops never nest, so all of them
   number their buffers from 0 in the one pool of the run. *)
type pool = { mutable bufs : float array array }

let buffer pool j =
  let have = Array.length pool.bufs in
  if j >= have then
    pool.bufs <-
      Array.append pool.bufs
        (Array.init (j + 1 - have) (fun _ -> Array.make strip 0.0));
  pool.bufs.(j)

type env = {
  res : result;
  assigned : (string, unit) Hashtbl.t;
  loops : string list;  (** variables of the enclosing loops: always defined *)
  trace : (addr:int -> write:bool -> unit) option;
  pool : pool;
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

(* ------------------------------------------------------------------ *)
(* Strips: an innermost loop one statement at a time                   *)
(* ------------------------------------------------------------------ *)

(* Element [j] of the current strip is [data.(off + j * step)]: a dense
   buffer (offset 0, step 1), an array reference (its offset set per
   strip) or a loop invariant (step 0). *)
type operand = { data : float array; mutable off : int; step : int }

let dense data = { data; off = 0; step = 1 }
let invariant data off = { data; off; step = 0 }

(* One dimension of a strip loop's array reference. *)
type dim =
  | On_var of int  (** this loop's variable plus an offset *)
  | Fixed of int  (** an absolute index *)
  | Enclosing of int * int
      (** an enclosing loop's variable (its int-mirror slot) plus an
          offset *)

type sref = {
  view : operand;  (** over the array's data, step [dir * per_iter] *)
  arr : arr;
  dims : dim array;
  per_iter : int;  (** flat-index distance between iterations [i] and [i + 1] *)
  mutable at0 : int;  (** flat index at iteration 0, for this loop instance *)
}

(* The entry check of one reference: in bounds at the first and the
   last iteration.  Every dimension is invariant or moves with the loop
   variable, so it is then in bounds throughout.  Also sets [at0]. *)
let enter ints ~lo ~hi r =
  let ok = ref true and flat = ref 0 in
  for d = 0 to Array.length r.dims - 1 do
    let dlo, dhi = r.arr.dims.(d) in
    let c =
      match r.dims.(d) with
      | On_var off | Fixed off -> off
      | Enclosing (k, off) -> ints.(k) + off
    in
    (match r.dims.(d) with
    | On_var _ -> if lo + c < dlo || hi + c > dhi then ok := false
    | Fixed _ | Enclosing _ -> if c < dlo || c > dhi then ok := false);
    flat := !flat + ((c - dlo) * r.arr.strides.(d))
  done;
  r.at0 <- !flat;
  !ok

(* The passes below write element [j] of [dst] for [j < n], a strip of
   [n] iterations; [dst] is a dense buffer or, for the right-hand side
   of a store, the stored reference's view.  Add, Sub, Mul and Div are
   written out so they stay unboxed; every other operator goes through
   the same [Ir.Expr] function the element closures call.  Indices run
   by their steps rather than being multiplied out.

   Each pass first checks that every operand's first and last element
   lie inside its array; the elements in between do too, since an
   operand's index is linear in [j].  It then reads and writes without
   per-element checks.  The check cannot fail for the operands
   [strip_loop] builds: a reference's elements are in bounds at every
   iteration once the loop's entry check passed, a dense buffer has
   [strip] elements, and an invariant is one element at step 0. *)

let in_bounds (o : operand) n =
  let last = o.off + ((n - 1) * o.step) and len = Array.length o.data in
  if n > 0 && (o.off < 0 || o.off >= len || last < 0 || last >= len) then
    invalid_arg "Exec.Interp: strip operand out of bounds"

let unop_pass op (a : operand) (dst : operand) n =
  in_bounds a n;
  in_bounds dst n;
  let ad = a.data and ast = a.step and dd = dst.data and dst_step = dst.step in
  let ia = ref a.off and id = ref dst.off in
  match op with
  | Ir.Expr.Neg ->
      for _ = 1 to n do
        Array.unsafe_set dd !id (-.Array.unsafe_get ad !ia);
        ia := !ia + ast;
        id := !id + dst_step
      done
  | op ->
      for _ = 1 to n do
        let v = Ir.Expr.apply_unop op (Array.unsafe_get ad !ia) in
        Array.unsafe_set dd !id v;
        ia := !ia + ast;
        id := !id + dst_step
      done

let binop_pass op (a : operand) (b : operand) (dst : operand) n =
  in_bounds a n;
  in_bounds b n;
  in_bounds dst n;
  let ad = a.data and ast = a.step and bd = b.data and bst = b.step in
  let dd = dst.data and dst_step = dst.step in
  let ia = ref a.off and ib = ref b.off and id = ref dst.off in
  match op with
  | Ir.Expr.Add ->
      for _ = 1 to n do
        let v = Array.unsafe_get ad !ia +. Array.unsafe_get bd !ib in
        Array.unsafe_set dd !id v;
        ia := !ia + ast;
        ib := !ib + bst;
        id := !id + dst_step
      done
  | Sub ->
      for _ = 1 to n do
        let v = Array.unsafe_get ad !ia -. Array.unsafe_get bd !ib in
        Array.unsafe_set dd !id v;
        ia := !ia + ast;
        ib := !ib + bst;
        id := !id + dst_step
      done
  | Mul ->
      for _ = 1 to n do
        let v = Array.unsafe_get ad !ia *. Array.unsafe_get bd !ib in
        Array.unsafe_set dd !id v;
        ia := !ia + ast;
        ib := !ib + bst;
        id := !id + dst_step
      done
  | Div ->
      for _ = 1 to n do
        let v = Array.unsafe_get ad !ia /. Array.unsafe_get bd !ib in
        Array.unsafe_set dd !id v;
        ia := !ia + ast;
        ib := !ib + bst;
        id := !id + dst_step
      done
  | op ->
      for _ = 1 to n do
        let va = Array.unsafe_get ad !ia and vb = Array.unsafe_get bd !ib in
        Array.unsafe_set dd !id (Ir.Expr.apply_binop op va vb);
        ia := !ia + ast;
        ib := !ib + bst;
        id := !id + dst_step
      done

let select_pass (c : operand) (a : operand) (b : operand) (dst : operand) n =
  in_bounds c n;
  in_bounds a n;
  in_bounds b n;
  in_bounds dst n;
  let cd = c.data and cst = c.step and ad = a.data and ast = a.step in
  let bd = b.data and bst = b.step and dd = dst.data and dst_step = dst.step in
  let ic = ref c.off and ia = ref a.off and ib = ref b.off and id = ref dst.off in
  for _ = 1 to n do
    Array.unsafe_set dd !id
      (if Array.unsafe_get cd !ic <> 0.0 then Array.unsafe_get ad !ia
       else Array.unsafe_get bd !ib);
    ic := !ic + cst;
    ia := !ia + ast;
    ib := !ib + bst;
    id := !id + dst_step
  done

(* Under the strip test a copy's source and destination are disjoint or
   the very same elements, so a blit is exact. *)
let copy_pass (v : operand) (dst : operand) n =
  if v.step = 1 && dst.step = 1 then Array.blit v.data v.off dst.data dst.off n
  else begin
    in_bounds v n;
    in_bounds dst n;
    let vd = v.data and vst = v.step in
    let dd = dst.data and dst_step = dst.step in
    let iv = ref v.off and id = ref dst.off in
    for _ = 1 to n do
      Array.unsafe_set dd !id (Array.unsafe_get vd !iv);
      iv := !iv + vst;
      id := !id + dst_step
    done
  end

exception Unfit

(* The strip path of [for var = lo..hi step body] ([env] is the body's,
   [var] included in [env.loops]); raises [Unfit] when the loop fails
   the static test.  The closure performs the entry check and either
   runs the whole loop in strips and returns [true], or does nothing and
   returns [false] for the caller's element closures to run it. *)
let strip_loop env ~var ~lo ~hi ~step body =
  let require ok = if not ok then raise Unfit in
  let { slots; values; defined; ints } = env.res.scalars in
  let slot x = Hashtbl.find slots x in
  let dir = if step >= 0 then 1 else -1 in
  (* arrays the body stores to, with the subscript every reference to
     them must have *)
  let stored = Hashtbl.create 4 in
  List.iter
    (function
      | Code.Store (x, subs, _) ->
          require (Array.exists (fun (s : Code.subscript) -> s.base = var) subs);
          if not (Hashtbl.mem stored x) then Hashtbl.add stored x subs
      | Sassign _ -> ()
      | For _ -> raise Unfit)
    body;
  let nbuf = ref 0 in
  let fresh () =
    let b = buffer env.pool !nbuf in
    incr nbuf;
    b
  in
  let passes = ref [] and refs = ref [] in
  let pass p = passes := p :: !passes in
  let first = ref lo in
  let var_values =
    lazy
      (let b = fresh () in
       let v = dense b in
       pass (fun n ->
           in_bounds v n;
           let i0 = !first in
           for j = 0 to n - 1 do
             Array.unsafe_set b j (float_of_int (i0 + (dir * j)))
           done);
       v)
  in
  let privates = Hashtbl.create 4 and read = Hashtbl.create 8 in
  let must_be_defined = ref [] in
  let reference x subs =
    let arr =
      match Hashtbl.find_opt env.res.arrays x with
      | Some arr -> arr
      | None -> raise Unfit
    in
    require (Array.length subs = Array.length arr.dims);
    (match Hashtbl.find_opt stored x with
    | Some subs' -> require (subs = subs')
    | None -> ());
    let per_iter = ref 0 in
    let dims =
      Array.mapi
        (fun d (s : Code.subscript) ->
          if s.base = "" then Fixed s.off
          else begin
            require
              (List.mem s.base env.loops && not (Hashtbl.mem env.assigned s.base));
            if s.base = var then begin
              per_iter := !per_iter + arr.strides.(d);
              On_var s.off
            end
            else Enclosing (slot s.base, s.off)
          end)
        subs
    in
    let r =
      {
        view = { data = arr.data; off = 0; step = dir * !per_iter };
        arr;
        dims;
        per_iter = !per_iter;
        at0 = 0;
      }
    in
    refs := r :: !refs;
    r.view
  in
  (* [operand e] is where [e]'s values are once the passes so far ran;
     [into dst e] appends the passes that write them into [dst] *)
  let rec operand (e : Code.expr) =
    match e with
    | Const f -> invariant [| f |] 0
    | Scalar x when x = var -> Lazy.force var_values
    | Scalar x -> (
        match Hashtbl.find_opt privates x with
        | Some v -> v
        | None ->
            let k = slot x in
            Hashtbl.replace read x ();
            if not (defined.(k) || List.mem x env.loops) then
              must_be_defined := k :: !must_be_defined;
            invariant values k)
    | Load (x, subs) -> reference x subs
    | Unop _ | Binop _ | Select _ ->
        let dst = dense (fresh ()) in
        into dst e;
        dst
  and into dst (e : Code.expr) =
    match e with
    | Unop (op, a) ->
        let a = operand a in
        pass (unop_pass op a dst)
    | Binop (op, a, b) ->
        let a = operand a in
        let b = operand b in
        pass (binop_pass op a b dst)
    | Select (c, a, b) ->
        let c = operand c in
        let a = operand a in
        let b = operand b in
        pass (select_pass c a b dst)
    | Const _ | Scalar _ | Load _ -> pass (copy_pass (operand e) dst)
  in
  let loads = ref 0 and flops = ref 0 and stores = ref 0 in
  let count e =
    let l, f = cost e in
    loads := !loads + l;
    flops := !flops + f
  in
  List.iter
    (fun (s : Code.stmt) ->
      match s with
      | Sassign (x, e) ->
          let v =
            match e with
            | Load _ ->
                (* a later store may overwrite what the view reads *)
                let b = dense (fresh ()) in
                into b e;
                b
            | _ -> operand e
          in
          (* a private scalar: written once, read only after its write,
             not a loop variable *)
          require
            (not
               (Hashtbl.mem privates x || Hashtbl.mem read x
               || List.mem x env.loops));
          Hashtbl.add privates x v;
          count e
      | Store (x, subs, e) ->
          into (reference x subs) e;
          count e;
          incr stores
      | For _ -> raise Unfit)
    body;
  let refs = Array.of_list (List.rev !refs) in
  let passes = Array.of_list (List.rev !passes) in
  let must_be_defined = !must_be_defined in
  let privates =
    Hashtbl.fold (fun x v acc -> (slot x, v) :: acc) privates []
  in
  let trip = hi - lo + 1 in
  let cnt = env.res.cnt and k = slot var in
  let loads = trip * !loads and flops = trip * !flops in
  let stores = trip * !stores in
  let last = if dir > 0 then hi else lo in
  fun () ->
    if
      Array.for_all (enter ints ~lo ~hi) refs
      && List.for_all (fun k -> defined.(k)) must_be_defined
    then begin
      let left = ref trip and n = ref 0 in
      first := if dir > 0 then lo else hi;
      while !left > 0 do
        n := min strip !left;
        Array.iter (fun r -> r.view.off <- r.at0 + (!first * r.per_iter)) refs;
        Array.iter (fun p -> p !n) passes;
        first := !first + (dir * !n);
        left := !left - !n
      done;
      (* the state the last iteration leaves *)
      ints.(k) <- last;
      values.(k) <- float_of_int last;
      defined.(k) <- true;
      List.iter
        (fun (k, v) ->
          values.(k) <- v.data.(v.off + ((!n - 1) * v.step));
          defined.(k) <- true)
        privates;
      cnt.loads <- cnt.loads + loads;
      cnt.flops <- cnt.flops + flops;
      cnt.stores <- cnt.stores + stores;
      cnt.iters <- cnt.iters + stores;
      true
    end
    else false

(* [None] for a traced run, a zero-trip loop, or a loop that fails the
   static test. *)
let strips env ~var ~lo ~hi ~step body =
  if env.trace <> None || lo > hi then None
  else try Some (strip_loop env ~var ~lo ~hi ~step body) with Unfit -> None

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
  | For { var; lo; hi; step; body = stmts } -> (
      let env = { env with loops = var :: env.loops } in
      let body = block env stmts in
      let { slots; values; defined; ints } = env.res.scalars in
      let k = Hashtbl.find slots var in
      let iteration i =
        ints.(k) <- i;
        values.(k) <- float_of_int i;
        body ()
      in
      let by_element =
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
      in
      match strips env ~var ~lo ~hi ~step stmts with
      | None -> by_element
      | Some by_strip -> fun () -> if not (by_strip ()) then by_element ())

and block env stmts =
  match Array.of_list (List.map (stmt env) stmts) with
  | [| s |] -> s
  | ss ->
      fun () ->
        for j = 0 to Array.length ss - 1 do
          ss.(j) ()
        done

let exec ?trace arrays (p : Code.program) =
  let scalars, assigned = scalar_slots p in
  let cnt = { loads = 0; stores = 0; flops = 0; iters = 0 } in
  let res = { arrays; scalars; live_out = p.live_out; cnt } in
  let pool = { bufs = [||] } in
  block { res; assigned; loops = []; trace; pool } p.body ();
  res

let run_over ?trace arrays p =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, base, dims, data) -> Hashtbl.replace tbl name (mk_arr base dims data))
    arrays;
  exec ?trace tbl p

let fresh_storage (a : Code.alloc) =
  Array.make (max 1 (Code.alloc_volume a)) 0.0

let run ?trace ?(storage = fresh_storage) (p : Code.program) =
  let res =
    Obs.span "interpret" (fun () ->
        let arrays = Hashtbl.create 16 in
        let base = ref 0 in
        List.iter
          (fun (a : Code.alloc) ->
            let n = Code.alloc_volume a in
            let data = storage a in
            if Array.length data <> max 1 n then
              invalid_arg "Exec.Interp.run: storage of the wrong length";
            Hashtbl.replace arrays a.name (mk_arr !base a.dims data);
            (* pad allocations apart so distinct arrays never share a line *)
            base := !base + n + 8)
          p.allocs;
        exec ?trace arrays p)
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
  | Some a -> a.data
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
  let mix_array = Support.Hash64.mix_float_array
  let to_hex = Support.Hash64.to_hex
end

let checksum r =
  Digest.to_hex
    (List.fold_left
       (fun d name ->
         match Hashtbl.find_opt r.arrays name with
         | Some a -> Digest.mix_array d a.data
         | None -> (
             match find_scalar r name with
             | Some v -> Digest.mix d v
             | None -> err "live-out %s not found" name))
       Digest.empty r.live_out)

let footprint_bytes p = 8 * Code.program_elements p
