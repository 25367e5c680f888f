(* The lazy array-expression frontend.

   Combinators record ops; each op points at the ops it reads, so the
   caller's handles own the op graph and a context keeps only its
   pending sinks and unforced reductions.  Observation flushes: the
   observed cone is lowered to an Ir.Prog, compiled through the
   Service.Engine plan cache, and executed under Exec.Interp.  Two
   decisions make the plan cache effective across a stream of
   structurally repeating traces:

   - canonical naming: lowered arrays/scalars are named by cone
     position ("a1", "a2", ... / "r1", ...), never by trace node id,
     so the 100th flush of a shape lowers to the same names as the
     first;

   - parameter lifting: every constant occurrence is replaced by a
     parameter scalar ("p1", "p2", ... in statement walk order)
     declared with a canonical initial value of 0.0, and the actual
     values are bound back into the *compiled* code just before
     execution.  The lowered program — and therefore its
     Ir.Prog.fingerprint, the cache key — is a pure function of the
     trace's shape.

   Shape checking happens at record time (the offending combinator
   raises), so a flush can only fail on an engine invariant violation,
   never on user input. *)

module Api = Service.Api
open Ir

exception Shape_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Shape_error s)) fmt

(* A trace op producing an array.  [rhs] references the ops it reads
   via placeholder names "#<id>", and [deps] holds exactly those ops, so
   a handle keeps its whole defining cone alive.  Canonical names are
   assigned per flush, so ids never leak into lowered programs. *)
type node = {
  id : int;
  region : Region.t;
  rhs : Expr.t;
  deps : node list;
  mutable consumed : bool;  (* some later op reads this one *)
  mutable values : float array option;  (* memoized observation *)
}

(* A reduction op producing a scalar.  Reductions are always sinks:
   no combinator consumes a scalar. *)
type red = {
  rid : int;
  op : Prog.redop;
  red_region : Region.t;
  src : node;
  mutable value : float option;
}

type stats = {
  flushes : int;
  ops_recorded : int;
  ops_lowered : int;
  ops_elided : int;
  ops_forwarded : int;
  params_lifted : int;
  forces : int;
  memo_hits : int;
  cache_hits : int;
  cache_misses : int;
  compiles_computed : int;
  plans_computed : int;
  last_fingerprint : string option;
}

type ctx = {
  name : string;
  level : Compilers.Driver.level;
  plan : Api.plan_mode;
  target : Api.target;
  eng : Service.Engine.t;
  mutable sinks : node list;
      (* newest first: every op recorded since the last flush and the
         sinks earlier flushes left pending; each flush drops the ones
         read or forced since *)
  mutable reds : red list;  (* unforced reductions, newest first *)
  mutable flushed_at : int;  (* [ops_recorded] when the last flush ran *)
  mutable flushing : bool;
  mutable temps : (Sir.Code.alloc * float array) list;
      (* storage of the temporaries of the last program run: the
         allocations outside its live-out, which the next run of an
         equal allocation zero-fills and takes over *)
  mutable stats : stats;
      (* kept unconditionally; Obs counters additionally fire when a
         recorder is installed *)
}

type arr = { actx : ctx; n : node }
type scalar = { sctx : ctx; r : red }

let create ?(name = "lazy") ?engine ?(level = Compilers.Driver.C2F3)
    ?(plan = Api.Greedy) ?(target = Api.default_target) () =
  let eng =
    match engine with Some e -> e | None -> Service.Engine.create ~jobs:1 ()
  in
  {
    name;
    level;
    plan;
    target;
    eng;
    sinks = [];
    reds = [];
    flushed_at = 0;
    flushing = false;
    temps = [];
    stats =
      {
        flushes = 0;
        ops_recorded = 0;
        ops_lowered = 0;
        ops_elided = 0;
        ops_forwarded = 0;
        params_lifted = 0;
        forces = 0;
        memo_hits = 0;
        cache_hits = 0;
        cache_misses = 0;
        compiles_computed = 0;
        plans_computed = 0;
        last_fingerprint = None;
      };
  }

let engine ctx = ctx.eng
let stats ctx = ctx.stats
let region_of (a : arr) = a.n.region

(* ------------------------------------------------------------------ *)
(* Placeholders                                                        *)
(* ------------------------------------------------------------------ *)

let pname (n : node) = Printf.sprintf "#%d" n.id
let placeholder (n : node) rank = Expr.Ref (pname n, Support.Vec.zero rank)

let id_of_placeholder x =
  if String.length x > 1 && x.[0] = '#' then
    int_of_string_opt (String.sub x 1 (String.length x - 1))
  else None

(* ------------------------------------------------------------------ *)
(* Record-time shape checking                                          *)
(* ------------------------------------------------------------------ *)

(* Every reference of [rhs] must name one of [operands], at the
   statement's rank, and stay within that operand's computed domain
   over [region].  Returns the operands [rhs] reads: the op's deps. *)
let check_rhs ~op ~(region : Region.t) ~(operands : node list) rhs =
  let rank = Region.rank region in
  if Region.is_empty region then err "lazyarr.%s: empty region %s" op (Region.to_string region);
  (match Expr.svars rhs with
  | [] -> ()
  | s :: _ -> err "lazyarr.%s: expression references scalar variable %S" op s);
  if not (Expr.rank_consistent ~rank rhs) then
    err "lazyarr.%s: expression index of rank inconsistent with region %s" op
      (Region.to_string region);
  let named = List.map (fun n -> (pname n, n)) operands in
  let refs = Expr.refs rhs in
  List.iter
    (fun (x, off) ->
      match List.assoc_opt x named with
      | None -> err "lazyarr.%s: expression references a foreign array" op
      | Some producer ->
          if not (Region.contains producer.region (Region.shift region off)) then
            err
              "lazyarr.%s: read at offset %s over %s escapes the operand's \
               domain %s"
              op
              (Support.Vec.to_string off)
              (Region.to_string region)
              (Region.to_string producer.region))
    refs;
  List.filter_map (fun (x, n) -> if List.mem_assoc x refs then Some n else None) named

let same_ctx op a b =
  if a.actx != b.actx then err "lazyarr.%s: operands from different contexts" op

(* The next op id; ids count the ops recorded, reductions included. *)
let next_id ctx =
  let st = ctx.stats in
  ctx.stats <- { st with ops_recorded = st.ops_recorded + 1 };
  Obs.count Metrics.op_recorded 1;
  st.ops_recorded

let record ctx ~region ~rhs ~deps =
  let n = { id = next_id ctx; region; rhs; deps; consumed = false; values = None } in
  List.iter (fun (d : node) -> d.consumed <- true) deps;
  ctx.sinks <- n :: ctx.sinks;
  { actx = ctx; n }

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let gen ctx region e =
  record ctx ~region ~rhs:e ~deps:(check_rhs ~op:"gen" ~region ~operands:[] e)

let map ?region f (a : arr) =
  let region = Option.value ~default:a.n.region region in
  let rhs = f (placeholder a.n (Region.rank a.n.region)) in
  record a.actx ~region ~rhs
    ~deps:(check_rhs ~op:"map" ~region ~operands:[ a.n ] rhs)

let zip_with ?region f (a : arr) (b : arr) =
  same_ctx "zip_with" a b;
  let region =
    match region with
    | Some r -> r
    | None -> (
        match Region.inter a.n.region b.n.region with
        | Some r -> r
        | None ->
            err "lazyarr.zip_with: operand regions %s and %s do not intersect"
              (Region.to_string a.n.region)
              (Region.to_string b.n.region))
  in
  let rank = Region.rank a.n.region in
  let rhs = f (placeholder a.n rank) (placeholder b.n rank) in
  (* self-zip reads one producer through both placeholders *)
  let operands = if a.n == b.n then [ a.n ] else [ a.n; b.n ] in
  record a.actx ~region ~rhs
    ~deps:(check_rhs ~op:"zip_with" ~region ~operands rhs)

let shift d (a : arr) =
  let rank = Region.rank a.n.region in
  if Support.Vec.rank d <> rank then
    err "lazyarr.shift: offset rank %d, operand rank %d" (Support.Vec.rank d)
      rank;
  let region = Region.shift a.n.region (Support.Vec.neg d) in
  let rhs = Expr.Ref (pname a.n, d) in
  record a.actx ~region ~rhs
    ~deps:(check_rhs ~op:"shift" ~region ~operands:[ a.n ] rhs)

let reduce ?region op (a : arr) =
  let ctx = a.actx in
  let region = Option.value ~default:a.n.region region in
  if Region.is_empty region then
    err "lazyarr.reduce: empty region %s" (Region.to_string region);
  if Region.rank region <> Region.rank a.n.region then
    err "lazyarr.reduce: region rank %d, operand rank %d" (Region.rank region)
      (Region.rank a.n.region);
  if not (Region.contains a.n.region region) then
    err "lazyarr.reduce: region %s escapes the operand's domain %s"
      (Region.to_string region)
      (Region.to_string a.n.region);
  let r = { rid = next_id ctx; op; red_region = region; src = a.n; value = None } in
  a.n.consumed <- true;
  ctx.reds <- r :: ctx.reds;
  { sctx = ctx; r }

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* Dependence cone of the observed ops, in ascending id order (an op's
   operands always have smaller ids, so that is a topological order).
   It follows [deps], so an operand the expression ignores is not in
   it. *)
let cone ~(obs_arrays : node list) ~(obs_reds : red list) =
  let seen = Hashtbl.create 32 in
  let rec visit (n : node) =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id n;
      List.iter visit n.deps
    end
  in
  List.iter visit obs_arrays;
  List.iter (fun (r : red) -> visit r.src) obs_reds;
  Hashtbl.fold (fun _ n acc -> n :: acc) seen []
  |> List.sort (fun (a : node) b -> compare a.id b.id)

type lowered = {
  prog : Prog.t;
  bindings : (string * float) list;  (* parameter scalar -> actual value *)
  named_arrays : (node * string) list;  (* observed nodes, canonical names *)
  named_reds : (red * string) list;
  cone : node list;
  n_forwarded : int;
}

(* Forwarding: a cone op whose right-hand side is a bare reference
   [#src@d] (a shift, an identity map, a zip_with returning one
   operand) that the flush does not observe is read in place, the way
   ZPL writes a neighbour: every reference to it becomes a reference to
   its first non-forwarded ancestor at the summed offset, and it gets
   no statement, no array and no canonical name.  Record-time checks
   keep each read inside its producer's domain, so the summed read
   stays inside the ancestor's.  [forwarded] maps each such op's id to
   (ancestor id, offset); ascending ids visit a chain's inner ops
   first. *)
let forwarded ~cone ~observed =
  let fwd = Hashtbl.create 8 in
  List.iter
    (fun (n : node) ->
      match (n.rhs, n.deps) with
      | Expr.Ref (_, d), [ src ] when not (List.mem n.id observed) ->
          Hashtbl.add fwd n.id
            (match Hashtbl.find_opt fwd src.id with
            | Some (anc, d0) -> (anc, Support.Vec.add d0 d)
            | None -> (src.id, d))
      | _ -> ())
    cone;
  fwd

(* [canonical]: lift constants to parameter scalars (the cache-reuse
   lowering).  Without it, constants stay inline — the eager twin the
   oracle and the tests replay. *)
let lower ctx ~canonical ~(obs_arrays : node list) ~(obs_reds : red list) =
  let cone = cone ~obs_arrays ~obs_reds in
  let observed = List.map (fun (n : node) -> n.id) obs_arrays in
  let fwd = forwarded ~cone ~observed in
  let kept = List.filter (fun (n : node) -> not (Hashtbl.mem fwd n.id)) cone in
  let names = Hashtbl.create 16 in
  List.iteri
    (fun i (n : node) -> Hashtbl.add names n.id (Printf.sprintf "a%d" (i + 1)))
    kept;
  let obs_reds = List.sort (fun a b -> compare a.rid b.rid) obs_reds in
  let red_names =
    List.mapi (fun i r -> (r, Printf.sprintf "r%d" (i + 1))) obs_reds
  in
  let params = ref [] in
  let n_params = ref 0 in
  let rec tr e =
    match e with
    | Expr.Const c ->
        if canonical then begin
          incr n_params;
          let p = Printf.sprintf "p%d" !n_params in
          params := (p, c) :: !params;
          Expr.Svar p
        end
        else e
    | Expr.Svar _ -> assert false (* record-time checks forbid scalars *)
    | Expr.Idx _ -> e
    | Expr.Ref (x, d) -> (
        match id_of_placeholder x with
        | Some id -> (
            match Hashtbl.find_opt fwd id with
            | Some (anc, d0) ->
                Expr.Ref (Hashtbl.find names anc, Support.Vec.add d0 d)
            | None -> Expr.Ref (Hashtbl.find names id, d))
        | None -> assert false)
    | Expr.Unop (op, a) -> Expr.Unop (op, tr a)
    | Expr.Binop (op, a, b) ->
        let a = tr a in
        let b = tr b in
        Expr.Binop (op, a, b)
    | Expr.Select (c, a, b) ->
        let c = tr c in
        let a = tr a in
        let b = tr b in
        Expr.Select (c, a, b)
  in
  let body =
    List.map
      (fun (n : node) ->
        Prog.Astmt
          (Nstmt.make ~region:n.region ~lhs:(Hashtbl.find names n.id) (tr n.rhs)))
      kept
    @ List.map
        (fun ((r : red), target) ->
          Prog.Reduce
            {
              target;
              op = r.op;
              region = r.red_region;
              arg = tr (placeholder r.src (Region.rank r.red_region));
            })
        red_names
  in
  let arrays =
    List.map
      (fun (n : node) ->
        {
          Prog.name = Hashtbl.find names n.id;
          bounds = n.region;
          kind = (if List.mem n.id observed then Prog.User else Prog.Compiler);
        })
      kept
  in
  let bindings = List.rev !params in
  let scalars =
    List.map (fun (p, _) -> (p, 0.0)) bindings
    @ List.map (fun (_, t) -> (t, 0.0)) red_names
  in
  let live_out =
    List.filter_map
      (fun (n : node) ->
        if List.mem n.id observed then Some (Hashtbl.find names n.id) else None)
      kept
    @ List.map snd red_names
  in
  let prog =
    {
      Prog.name = Printf.sprintf "%s.flush%d" ctx.name (ctx.stats.flushes + 1);
      arrays;
      scalars;
      body;
      live_out;
    }
  in
  (match Prog.validate prog with
  | Ok () -> ()
  | Error m ->
      (* record-time checks are meant to make this unreachable *)
      err "lazyarr: lowered program is invalid (%s)" m);
  {
    prog;
    bindings;
    named_arrays =
      List.map (fun (n : node) -> (n, Hashtbl.find names n.id)) obs_arrays;
    named_reds = red_names;
    cone;
    n_forwarded = Hashtbl.length fwd;
  }

let lower_direct ctx (a : arr) =
  (lower ctx ~canonical:false ~obs_arrays:[ a.n ] ~obs_reds:[]).prog

let lower_direct_scalar ctx (s : scalar) =
  (lower ctx ~canonical:false ~obs_arrays:[] ~obs_reds:[ s.r ]).prog

(* ------------------------------------------------------------------ *)
(* Flush                                                               *)
(* ------------------------------------------------------------------ *)

(* Bind the actual constant values over the canonical (all-zero)
   parameter initializers of the *compiled* code.  The compiled value
   is shared through the plan cache, so this builds a fresh program
   record rather than mutating. *)
let rebind bindings (code : Sir.Code.program) =
  if bindings = [] then code
  else
    {
      code with
      Sir.Code.scalars =
        List.map
          (fun (s, v) ->
            match List.assoc_opt s bindings with
            | Some actual -> (s, actual)
            | None -> (s, v))
          code.Sir.Code.scalars;
    }

(* Exec.Interp storage for a run of [code].  A live-out array is fresh:
   the node it is forced into memoizes it.  A temporary takes over the
   zero-filled array of an equal allocation of the previous run, if
   there is one; the context then keeps this run's temporaries only. *)
let storage ctx (code : Sir.Code.program) =
  let kept = ctx.temps in
  ctx.temps <- [];
  fun (a : Sir.Code.alloc) ->
    if List.mem a.name code.live_out then Exec.Interp.fresh_storage a
    else begin
      let data =
        match List.assoc_opt a kept with
        | Some data ->
            Array.fill data 0 (Array.length data) 0.0;
            data
        | None -> Exec.Interp.fresh_storage a
      in
      ctx.temps <- (a, data) :: ctx.temps;
      data
    end

let count p l = List.fold_left (fun k x -> if p x then k + 1 else k) 0 l

(* A sink an explicit flush still has to compute: nothing has read it
   and nothing has forced it. *)
let pending (n : node) = (not n.consumed) && n.values = None

let flush_obs ctx ~obs_arrays ~obs_reds =
  if ctx.flushing then err "lazyarr: re-entrant flush";
  ctx.flushing <- true;
  Fun.protect
    ~finally:(fun () -> ctx.flushing <- false)
    (fun () ->
      Obs.span "lazy.flush" @@ fun () ->
      let l =
        Obs.span "lazy.lower" (fun () ->
            lower ctx ~canonical:true ~obs_arrays ~obs_reds)
      in
      let n_lowered = List.length l.cone + List.length l.named_reds in
      (* dead-op elision: the previous flush counted every earlier op, as
         lowered or as elided, so the ops this one passes over are those
         recorded since, outside its cone *)
      let st = ctx.stats in
      let fresh id = id >= ctx.flushed_at in
      let n_elided =
        st.ops_recorded - ctx.flushed_at
        - count (fun (n : node) -> fresh n.id) l.cone
        - count (fun ((r : red), _) -> fresh r.rid) l.named_reds
      in
      ctx.flushed_at <- st.ops_recorded;
      ctx.stats <-
        {
          st with
          flushes = st.flushes + 1;
          ops_lowered = st.ops_lowered + n_lowered;
          ops_elided = st.ops_elided + n_elided;
          ops_forwarded = st.ops_forwarded + l.n_forwarded;
          params_lifted = st.params_lifted + List.length l.bindings;
        };
      Obs.count Metrics.flush 1;
      Obs.count Metrics.op_lowered n_lowered;
      if n_elided > 0 then Obs.count Metrics.op_elided n_elided;
      if l.n_forwarded > 0 then Obs.count Metrics.op_forwarded l.n_forwarded;
      if l.bindings <> [] then
        Obs.count Metrics.param_lifted (List.length l.bindings);
      let opts =
        {
          Api.default_compile_opts with
          Api.level = Compilers.Driver.level_name ctx.level;
          plan = ctx.plan;
        }
      in
      let fingerprint, compiled, (lookup : Service.Engine.lookup) =
        match
          Service.Engine.compile_ir ctx.eng ~opts ~target:ctx.target l.prog
        with
        | Ok (fp, c, _provenance, lookup) -> (fp, c, lookup)
        | Error d -> raise (Obs.Error d)
      in
      let st = ctx.stats in
      ctx.stats <-
        {
          st with
          cache_hits = st.cache_hits + Bool.to_int lookup.hit;
          cache_misses = st.cache_misses + Bool.to_int (not lookup.hit);
          compiles_computed = st.compiles_computed + Bool.to_int lookup.compiled;
          plans_computed = st.plans_computed + Bool.to_int lookup.planned;
          last_fingerprint = Some fingerprint;
        };
      let code = rebind l.bindings compiled.Compilers.Driver.code in
      let res =
        Obs.span "lazy.execute" (fun () ->
            Exec.Interp.run ~storage:(storage ctx code) code)
      in
      List.iter
        (fun ((n : node), name) ->
          n.values <- Some (Exec.Interp.get_array res name))
        l.named_arrays;
      List.iter
        (fun ((r : red), name) ->
          r.value <- Some (Exec.Interp.get_scalar res name))
        l.named_reds;
      ctx.sinks <- List.filter pending ctx.sinks;
      ctx.reds <- List.filter (fun (r : red) -> r.value = None) ctx.reds)

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let note_force ctx ~memo =
  let st = ctx.stats in
  ctx.stats <-
    { st with forces = st.forces + 1; memo_hits = st.memo_hits + Bool.to_int memo };
  Obs.count Metrics.force 1;
  if memo then Obs.count Metrics.force_memo 1

(* The observed value, from the memo or from a flush of its cone. *)
let values (a : arr) =
  match a.n.values with
  | Some v ->
      note_force a.actx ~memo:true;
      v
  | None ->
      note_force a.actx ~memo:false;
      flush_obs a.actx ~obs_arrays:[ a.n ] ~obs_reds:[];
      Option.get a.n.values

let force a = Array.copy (values a)

let force_scalar (s : scalar) =
  match s.r.value with
  | Some v ->
      note_force s.sctx ~memo:true;
      v
  | None ->
      note_force s.sctx ~memo:false;
      flush_obs s.sctx ~obs_arrays:[] ~obs_reds:[ s.r ];
      Option.get s.r.value

let checksum a = Exec.Interp.Digest.(to_hex (mix_array empty (values a)))

let scalar_checksum (s : scalar) =
  let v = force_scalar s in
  Exec.Interp.Digest.to_hex
    (Exec.Interp.Digest.mix Exec.Interp.Digest.empty v)

(* Every pending sink and unforced reduction, oldest first. *)
let flush ctx =
  let obs_arrays = List.rev (List.filter pending ctx.sinks) in
  let obs_reds = List.rev ctx.reds in
  if obs_arrays <> [] || obs_reds <> [] then
    flush_obs ctx ~obs_arrays ~obs_reds
