(* The lazy array-expression frontend.

   Combinators record ops into a per-context trace; observation
   flushes: the observed cone is lowered to an Ir.Prog, compiled
   through the Service.Engine plan cache, and executed under
   Exec.Interp.  Two decisions make the plan cache effective across a
   stream of structurally repeating traces:

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

(* A trace op producing an array.  [rhs] references producer ops via
   placeholder names "#<id>"; canonical names are assigned per flush,
   so ids never leak into lowered programs. *)
type node = {
  id : int;
  region : Region.t;
  rhs : Expr.t;
  deps : int list;
  mutable consumed : bool;  (* some later op reads this one *)
  mutable values : float array option;  (* memoized observation *)
  mutable accounted : bool;
      (* already counted by some flush, as lowered or as elided — keeps
         the ops_lowered/ops_elided split from recounting leftovers of
         earlier flushes forever *)
}

(* A reduction op producing a scalar.  Reductions are always sinks:
   no combinator consumes a scalar. *)
type red = {
  rid : int;
  op : Prog.redop;
  red_region : Region.t;
  src : int;
  mutable value : float option;
  mutable racc : bool;  (* as [accounted] *)
}

type ctx = {
  name : string;
  level : Compilers.Driver.level;
  plan : Api.plan_mode;
  target : Api.target;
  eng : Service.Engine.t;
  nodes : (int, node) Hashtbl.t;
  reds : (int, red) Hashtbl.t;
  mutable next_id : int;
  mutable next_rid : int;
  mutable flushing : bool;
  (* statistics (kept unconditionally; Obs counters additionally fire
     when a recorder is installed) *)
  mutable flushes : int;
  mutable ops_recorded : int;
  mutable ops_lowered : int;
  mutable ops_elided : int;
  mutable ops_forwarded : int;
  mutable params_lifted : int;
  mutable forces : int;
  mutable memo_hits : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable compiles_computed : int;
  mutable plans_computed : int;
  mutable last_fingerprint : string option;
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
    nodes = Hashtbl.create 64;
    reds = Hashtbl.create 8;
    next_id = 0;
    next_rid = 0;
    flushing = false;
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
  }

let engine ctx = ctx.eng
let region_of (a : arr) = a.n.region

(* ------------------------------------------------------------------ *)
(* Placeholders                                                        *)
(* ------------------------------------------------------------------ *)

let placeholder id rank = Expr.Ref (Printf.sprintf "#%d" id, Support.Vec.zero rank)

let id_of_placeholder x =
  if String.length x > 1 && x.[0] = '#' then
    int_of_string_opt (String.sub x 1 (String.length x - 1))
  else None

(* ------------------------------------------------------------------ *)
(* Record-time shape checking                                          *)
(* ------------------------------------------------------------------ *)

(* [allowed] maps each operand's placeholder name to its region; every
   reference of [rhs] must target an operand, at the statement's rank,
   and stay within the operand's computed domain over [region]. *)
let check_rhs ~op ~(region : Region.t) ~allowed rhs =
  let rank = Region.rank region in
  if Region.is_empty region then err "lazyarr.%s: empty region %s" op (Region.to_string region);
  (match Expr.svars rhs with
  | [] -> ()
  | s :: _ -> err "lazyarr.%s: expression references scalar variable %S" op s);
  if not (Expr.rank_consistent ~rank rhs) then
    err "lazyarr.%s: expression index of rank inconsistent with region %s" op
      (Region.to_string region);
  List.iter
    (fun (x, off) ->
      match List.assoc_opt x allowed with
      | None -> err "lazyarr.%s: expression references a foreign array" op
      | Some producer ->
          if not (Region.contains producer (Region.shift region off)) then
            err
              "lazyarr.%s: read at offset %s over %s escapes the operand's \
               domain %s"
              op
              (Support.Vec.to_string off)
              (Region.to_string region)
              (Region.to_string producer))
    (Expr.refs rhs)

let same_ctx op a b =
  if a.actx != b.actx then err "lazyarr.%s: operands from different contexts" op

let record ctx ~region ~rhs ~deps =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  let n = { id; region; rhs; deps; consumed = false; values = None; accounted = false } in
  Hashtbl.add ctx.nodes id n;
  List.iter (fun d -> (Hashtbl.find ctx.nodes d).consumed <- true) deps;
  ctx.ops_recorded <- ctx.ops_recorded + 1;
  Obs.count Metrics.op_recorded 1;
  { actx = ctx; n }

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let gen ctx region e =
  check_rhs ~op:"gen" ~region ~allowed:[] e;
  record ctx ~region ~rhs:e ~deps:[]

let map ?region f (a : arr) =
  let region = Option.value ~default:a.n.region region in
  let pname = Printf.sprintf "#%d" a.n.id in
  let rhs = f (placeholder a.n.id (Region.rank a.n.region)) in
  check_rhs ~op:"map" ~region ~allowed:[ (pname, a.n.region) ] rhs;
  record a.actx ~region ~rhs ~deps:[ a.n.id ]

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
  let pa = Printf.sprintf "#%d" a.n.id and pb = Printf.sprintf "#%d" b.n.id in
  let rank = Region.rank a.n.region in
  let rhs = f (placeholder a.n.id rank) (placeholder b.n.id rank) in
  (* self-zip reads one producer through both placeholders; the
     [allowed] list just carries the region twice *)
  check_rhs ~op:"zip_with" ~region
    ~allowed:[ (pa, a.n.region); (pb, b.n.region) ]
    rhs;
  record a.actx ~region ~rhs ~deps:(if a.n.id = b.n.id then [ a.n.id ] else [ a.n.id; b.n.id ])

let shift d (a : arr) =
  let rank = Region.rank a.n.region in
  if Support.Vec.rank d <> rank then
    err "lazyarr.shift: offset rank %d, operand rank %d" (Support.Vec.rank d)
      rank;
  let region = Region.shift a.n.region (Support.Vec.neg d) in
  let rhs = Expr.Ref (Printf.sprintf "#%d" a.n.id, d) in
  check_rhs ~op:"shift" ~region
    ~allowed:[ (Printf.sprintf "#%d" a.n.id, a.n.region) ]
    rhs;
  record a.actx ~region ~rhs ~deps:[ a.n.id ]

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
  let rid = ctx.next_rid in
  ctx.next_rid <- rid + 1;
  let r = { rid; op; red_region = region; src = a.n.id; value = None; racc = false } in
  Hashtbl.add ctx.reds rid r;
  a.n.consumed <- true;
  ctx.ops_recorded <- ctx.ops_recorded + 1;
  Obs.count Metrics.op_recorded 1;
  { sctx = ctx; r }

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* Dependence cone of the observed ops: ids in ascending order (an
   op's dependencies always have smaller ids, so ascending id order is
   a topological order of the cone). *)
let cone ctx ~(obs_arrays : node list) ~(obs_reds : red list) =
  let seen = Hashtbl.create 32 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter visit (Hashtbl.find ctx.nodes id).deps
    end
  in
  List.iter (fun (n : node) -> visit n.id) obs_arrays;
  List.iter (fun (r : red) -> visit r.src) obs_reds;
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort compare

type lowered = {
  prog : Prog.t;
  bindings : (string * float) list;  (* parameter scalar -> actual value *)
  named_arrays : (node * string) list;  (* observed nodes, canonical names *)
  named_reds : (red * string) list;
  cone_ids : int list;
  n_lowered : int;
  n_forwarded : int;
}

(* Forwarding: a cone op whose right-hand side is a bare reference
   [#src@d] (a shift, an identity map, a zip_with returning one
   operand) that the flush does not observe is read in place, the way
   ZPL writes a neighbour: every reference to it becomes a reference to
   its first non-forwarded ancestor at the summed offset, and it gets
   no statement, no array and no canonical name.  Record-time checks
   keep each read inside its producer's domain, so the summed read
   stays inside the ancestor's.  [forwarded] maps each such op to
   (ancestor, offset); ascending ids visit a chain's inner ops first. *)
let forwarded ctx ~cone_ids ~observed =
  let fwd = Hashtbl.create 8 in
  List.iter
    (fun id ->
      match (Hashtbl.find ctx.nodes id).rhs with
      | Expr.Ref (x, d) when not (List.mem id observed) ->
          let src = Option.get (id_of_placeholder x) in
          Hashtbl.add fwd id
            (match Hashtbl.find_opt fwd src with
            | Some (anc, d0) -> (anc, Support.Vec.add d0 d)
            | None -> (src, d))
      | _ -> ())
    cone_ids;
  fwd

(* [canonical]: lift constants to parameter scalars (the cache-reuse
   lowering).  Without it, constants stay inline — the eager twin the
   oracle and the tests replay. *)
let lower ctx ~canonical ~(obs_arrays : node list) ~(obs_reds : red list) =
  let cone_ids = cone ctx ~obs_arrays ~obs_reds in
  let observed = List.map (fun (n : node) -> n.id) obs_arrays in
  let fwd = forwarded ctx ~cone_ids ~observed in
  let kept = List.filter (fun id -> not (Hashtbl.mem fwd id)) cone_ids in
  let names = Hashtbl.create 16 in
  List.iteri
    (fun i id -> Hashtbl.add names id (Printf.sprintf "a%d" (i + 1)))
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
      (fun id ->
        let n = Hashtbl.find ctx.nodes id in
        Prog.Astmt
          (Nstmt.make ~region:n.region ~lhs:(Hashtbl.find names id) (tr n.rhs)))
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
      (fun id ->
        let n = Hashtbl.find ctx.nodes id in
        {
          Prog.name = Hashtbl.find names id;
          bounds = n.region;
          kind = (if List.mem id observed then Prog.User else Prog.Compiler);
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
      (fun id ->
        if List.mem id observed then Some (Hashtbl.find names id) else None)
      kept
    @ List.map snd red_names
  in
  let prog =
    {
      Prog.name = Printf.sprintf "%s.flush%d" ctx.name (ctx.flushes + 1);
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
  let n_lowered = List.length cone_ids + List.length obs_reds in
  {
    prog;
    bindings;
    named_arrays =
      List.filter_map
        (fun (n : node) ->
          if List.mem n.id cone_ids then Some (n, Hashtbl.find names n.id)
          else None)
        obs_arrays;
    named_reds = red_names;
    cone_ids;
    n_lowered;
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
      ctx.flushes <- ctx.flushes + 1;
      ctx.ops_lowered <- ctx.ops_lowered + l.n_lowered;
      ctx.ops_forwarded <- ctx.ops_forwarded + l.n_forwarded;
      (* dead-op elision accounting: a pending op outside the cone is
         elided — counted once, the first time a flush passes it over
         without ever having lowered it *)
      List.iter
        (fun id -> (Hashtbl.find ctx.nodes id).accounted <- true)
        l.cone_ids;
      List.iter (fun ((r : red), _) -> r.racc <- true) l.named_reds;
      let n_elided = ref 0 in
      Hashtbl.iter
        (fun _ (n : node) ->
          if (not n.accounted) && n.values = None then begin
            n.accounted <- true;
            incr n_elided
          end)
        ctx.nodes;
      Hashtbl.iter
        (fun _ (r : red) ->
          if (not r.racc) && r.value = None then begin
            r.racc <- true;
            incr n_elided
          end)
        ctx.reds;
      let n_elided = !n_elided in
      ctx.ops_elided <- ctx.ops_elided + n_elided;
      ctx.params_lifted <- ctx.params_lifted + List.length l.bindings;
      Obs.count Metrics.flush 1;
      Obs.count Metrics.op_lowered l.n_lowered;
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
      ctx.cache_hits <- ctx.cache_hits + Bool.to_int lookup.hit;
      ctx.cache_misses <- ctx.cache_misses + Bool.to_int (not lookup.hit);
      ctx.compiles_computed <-
        ctx.compiles_computed + Bool.to_int lookup.compiled;
      ctx.plans_computed <- ctx.plans_computed + Bool.to_int lookup.planned;
      ctx.last_fingerprint <- Some fingerprint;
      let code = rebind l.bindings compiled.Compilers.Driver.code in
      let res = Obs.span "lazy.execute" (fun () -> Exec.Interp.run code) in
      List.iter
        (fun ((n : node), name) ->
          n.values <- Some (Exec.Interp.get_array res name))
        l.named_arrays;
      List.iter
        (fun ((r : red), name) ->
          r.value <- Some (Exec.Interp.get_scalar res name))
        l.named_reds)

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let note_force ctx ~memo =
  ctx.forces <- ctx.forces + 1;
  Obs.count Metrics.force 1;
  if memo then begin
    ctx.memo_hits <- ctx.memo_hits + 1;
    Obs.count Metrics.force_memo 1
  end

let force (a : arr) =
  match a.n.values with
  | Some v ->
      note_force a.actx ~memo:true;
      Array.copy v
  | None ->
      note_force a.actx ~memo:false;
      flush_obs a.actx ~obs_arrays:[ a.n ] ~obs_reds:[];
      Array.copy (Option.get a.n.values)

let force_scalar (s : scalar) =
  match s.r.value with
  | Some v ->
      note_force s.sctx ~memo:true;
      v
  | None ->
      note_force s.sctx ~memo:false;
      flush_obs s.sctx ~obs_arrays:[] ~obs_reds:[ s.r ];
      Option.get s.r.value

let digest_of values =
  Exec.Interp.Digest.(to_hex (mix_array empty values))

let checksum (a : arr) =
  (match a.n.values with
  | Some _ -> note_force a.actx ~memo:true
  | None ->
      note_force a.actx ~memo:false;
      flush_obs a.actx ~obs_arrays:[ a.n ] ~obs_reds:[]);
  digest_of (Option.get a.n.values)

let scalar_checksum (s : scalar) =
  let v = force_scalar s in
  Exec.Interp.Digest.to_hex
    (Exec.Interp.Digest.mix Exec.Interp.Digest.empty v)

let flush ctx =
  let obs_arrays =
    Hashtbl.fold
      (fun _ (n : node) acc ->
        if (not n.consumed) && n.values = None then n :: acc else acc)
      ctx.nodes []
    |> List.sort (fun (a : node) b -> compare a.id b.id)
  in
  let obs_reds =
    Hashtbl.fold
      (fun _ (r : red) acc -> if r.value = None then r :: acc else acc)
      ctx.reds []
    |> List.sort (fun (a : red) b -> compare a.rid b.rid)
  in
  if obs_arrays <> [] || obs_reds <> [] then
    flush_obs ctx ~obs_arrays ~obs_reds

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

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

let stats (ctx : ctx) =
  {
    flushes = ctx.flushes;
    ops_recorded = ctx.ops_recorded;
    ops_lowered = ctx.ops_lowered;
    ops_elided = ctx.ops_elided;
    ops_forwarded = ctx.ops_forwarded;
    params_lifted = ctx.params_lifted;
    forces = ctx.forces;
    memo_hits = ctx.memo_hits;
    cache_hits = ctx.cache_hits;
    cache_misses = ctx.cache_misses;
    compiles_computed = ctx.compiles_computed;
    plans_computed = ctx.plans_computed;
    last_fingerprint = ctx.last_fingerprint;
  }
