open Ir

type level = Baseline | F1 | C1 | F2 | F3 | C2 | C2F3 | C2F4 | C2P

let all_levels = [ Baseline; F1; C1; F2; F3; C2; C2F3; C2F4 ]

let level_name = function
  | Baseline -> "baseline"
  | F1 -> "f1"
  | C1 -> "c1"
  | F2 -> "f2"
  | F3 -> "f3"
  | C2 -> "c2"
  | C2F3 -> "c2+f3"
  | C2F4 -> "c2+f4"
  | C2P -> "c2+p"

(* Both the paper spellings ("c2+f3") and the internal ones ("c2f3")
   are accepted, case-insensitively: names compare with '+' removed. *)
let canonical_name s =
  String.lowercase_ascii s
  |> String.to_seq
  |> Seq.filter (fun c -> c <> '+')
  |> String.of_seq

let level_of_name s =
  let want = canonical_name s in
  List.find_opt
    (fun l -> canonical_name (level_name l) = want)
    (all_levels @ [ C2P ])

type compiled = {
  level : level;
  prog : Prog.t;
  plan : Sir.Scalarize.plan;
  code : Sir.Code.program;
  contracted : (string * Core.Contraction.shape) list;
}

(* ------------------------------------------------------------------ *)
(* Program-wide context shared by all blocks                           *)
(* ------------------------------------------------------------------ *)

type ctx = {
  prog : Prog.t;
  blocks : Prog.block list;
  (* candidates computed optimistically: every trailing reduce is
     assumed absorbable; verified per block after fusion *)
  candidates : (string * int) list;
}

let make_ctx prog skeleton =
  {
    prog;
    blocks = Prog.skeleton_blocks skeleton;
    candidates = Prog.confined_arrays_allowing_reduces prog skeleton;
  }

let block_candidates ctx block_idx =
  let in_block =
    List.filter_map
      (fun (x, b) -> if b = block_idx then Some x else None)
      ctx.candidates
  in
  let kind x =
    match Prog.find_array ctx.prog x with
    | Some info -> info.Prog.kind
    | None -> Prog.User
  in
  ( List.filter (fun x -> kind x = Prog.Compiler) in_block,
    List.filter (fun x -> kind x = Prog.User) in_block )

(* ------------------------------------------------------------------ *)
(* Reduction absorption (reduction fusion)                             *)
(* ------------------------------------------------------------------ *)

(* For each reduction trailing this block, choose a cluster to fuse it
   into, or leave it standalone.  Soundness conditions for absorbing
   into cluster [c]:
   - the reduction region equals [c]'s region;
   - [c]'s loop structure is the default row-major one, so accumulation
     order — and floating-point rounding — is bitwise-preserved;
   - any array the argument reads that is written in [c] is read at
     offset 0 (its final value at the current point is available);
   - no cluster emitted after [c] writes an array the argument reads
     (the accumulation must see final values);
   - the target scalar is not read anywhere in the block, and the
     reduction does not interfere with ANY earlier reduction in the
     trailing run — absorbed or standalone.  Absorption hoists the
     reduction into the block nest, above every earlier standalone
     reduction, so a shared target (each reduction re-initializes its
     accumulator: last writer wins), an argument reading an earlier
     target, or a target read by an earlier argument all change the
     result.
   Among valid clusters we prefer the {e latest producer} of the
   argument's arrays: absorbing there lets an array read only by this
   reduction contract. *)
let decide_absorption (b : Prog.block) (p : Core.Partition.t) =
  if b.trailing = [] then []
  else begin
    let order = Array.of_list (Sir.Scalarize.cluster_order p) in
    let n = Array.length order in
    let g = Core.Partition.asdg p in
    let cluster_stmts pos =
      List.map (Core.Asdg.stmt g) (Core.Partition.members p order.(pos))
    in
    let writes pos =
      List.map (fun (s : Nstmt.t) -> s.lhs) (cluster_stmts pos)
    in
    let block_svars =
      Array.to_list (Core.Asdg.stmts g)
      |> List.concat_map (fun (s : Nstmt.t) -> Expr.svars s.rhs)
    in
    let cluster_ok pos region =
      match cluster_stmts pos with
      | [] -> false
      | s0 :: _ ->
          Region.equal region s0.Nstmt.region
          &&
          let rank = Region.rank s0.Nstmt.region in
          (match Core.Partition.loop_structure p order.(pos) with
          | Some ls -> ls = Core.Loopstruct.default rank
          | None -> false)
    in
    let absorbed = ref [] in
    (* targets and argument scalars of every reduction already
       considered in this run, absorbed or not: absorbing a later
       reduction reorders it past the standalone ones, so interference
       with any of them is disqualifying *)
    let prior_targets = ref [] in
    let prior_arg_svars = ref [] in
    List.iter
      (fun { Prog.index = ri; target; region; arg; _ } ->
        let refs = Expr.refs arg in
        let arrays_read = List.map fst refs in
        (* latest cluster writing any argument array *)
        let latest_writer = ref (-1) in
        for pos = 0 to n - 1 do
          if List.exists (fun x -> List.mem x (writes pos)) arrays_read then
            latest_writer := pos
        done;
        let scalar_ok =
          (not (List.mem target block_svars))
          && (not (List.mem target !prior_targets))
          && (not (List.mem target !prior_arg_svars))
          && List.for_all
               (fun s -> not (List.mem s !prior_targets))
               (Expr.svars arg)
        in
        let offsets_ok pos =
          List.for_all
            (fun (x, d) ->
              (not (List.mem x (writes pos))) || Support.Vec.is_null d)
            refs
        in
        (* valid positions: >= latest writer; prefer the latest writer
           itself (contraction), else the earliest valid one after it *)
        if scalar_ok then begin
          let start = max 0 !latest_writer in
          let rec try_pos pos =
            if pos >= n then ()
            else if cluster_ok pos region && offsets_ok pos then
              absorbed := !absorbed @ [ (ri, order.(pos)) ]
            else try_pos (pos + 1)
          in
          try_pos start
        end;
        prior_targets := target :: !prior_targets;
        prior_arg_svars := Expr.svars arg @ !prior_arg_svars)
      b.trailing;
    !absorbed
  end

(* Arrays read by reductions may only contract when every such
   reduction is absorbed into the cluster holding all the array's block
   references (the accumulation then reads the contraction scalar).
   A candidate's reduction readers all trail its block
   ([Prog.confined_arrays_allowing_reduces]). *)
let filter_reduce_read_candidates (b : Prog.block) p absorbed cands =
  let reduce_readers x =
    List.filter_map
      (fun (r : Prog.reduction) ->
        if List.mem x (Expr.ref_names r.arg) then Some r.index else None)
      b.trailing
  in
  List.filter
    (fun x ->
      match reduce_readers x with
      | [] -> true
      | readers ->
          List.for_all
            (fun r ->
              match List.assoc_opt r absorbed with
              | None -> false
              | Some rep ->
                  List.for_all
                    (fun i -> Core.Partition.cluster_of p i = rep)
                    (Core.Asdg.stmts_referencing (Core.Partition.asdg p) x))
            readers)
    cands

(* ------------------------------------------------------------------ *)
(* Per-block optimization                                              *)
(* ------------------------------------------------------------------ *)

let scalar_shapes xs = List.map (fun x -> (x, Core.Contraction.Scalar)) xs

let decide_absorbed b p =
  let absorbed =
    Obs.span "reduction-fusion" (fun () -> decide_absorption b p)
  in
  if Obs.enabled () then
    List.iter
      (fun (ri, rep) ->
        Obs.event (Obs.Reduction_absorbed { reduce = ri; cluster = rep }))
      absorbed;
  absorbed

(* Everything downstream of the fusion decision: reduction absorption,
   the reduce-read candidate filter, and the contraction decision —
   shared by the level ladder and by [compile_custom]'s partitioner. *)
let finish_plan ~absorb b p cands : Sir.Scalarize.block_plan =
  let absorbed = if absorb then decide_absorbed b p else [] in
  let cands = filter_reduce_read_candidates b p absorbed cands in
  {
    Sir.Scalarize.partition = p;
    contracted =
      Obs.span "contraction" (fun () ->
          scalar_shapes (Core.Contraction.decide p ~candidates:cands));
    absorbed;
  }

let plan_block ?(reduction_fusion = true) ~level ~may_fuse ctx (b : Prog.block)
    : Sir.Scalarize.block_plan =
  (* Reduction fusion belongs to the user-array strategies: f1/c1 only
     consider compiler temporaries, and reductions never involve them
     (paper: EP and Frac gain nothing from f1/c1). *)
  let reduction_fusion =
    reduction_fusion && match level with Baseline | F1 | C1 -> false | _ -> true
  in
  let g = Obs.span "dependence" (fun () -> Core.Asdg.build b.stmts) in
  let compiler_cands, user_cands = block_candidates ctx b.index in
  let all_cands = compiler_cands @ user_cands in
  let fuse_c cands =
    Obs.span "fusion" (fun () ->
        Core.Fusion.for_contraction ~may_fuse ~candidates:cands g)
  in
  let locality ?relax_flow p =
    Obs.span "fusion-locality" (fun () ->
        Core.Fusion.for_locality ?relax_flow ~may_fuse p)
  in
  let finish ?(absorb = reduction_fusion) p cands =
    finish_plan ~absorb b p cands
  in
  match level with
  | Baseline ->
      {
        Sir.Scalarize.partition = Core.Partition.trivial g;
        contracted = [];
        absorbed = [];
      }
  | F1 ->
      let bp = finish (fuse_c compiler_cands) [] in
      { bp with Sir.Scalarize.contracted = [] }
  | C1 -> finish (fuse_c compiler_cands) compiler_cands
  | F2 ->
      (* fusion as for full contraction, but only compiler arrays are
         actually contracted *)
      finish (fuse_c all_cands) compiler_cands
  | F3 -> finish (locality (fuse_c compiler_cands)) compiler_cands
  | C2 -> finish (fuse_c all_cands) all_cands
  | C2F3 -> finish (locality (fuse_c all_cands)) all_cands
  | C2F4 ->
      let p0 = locality (fuse_c all_cands) in
      finish
        (Obs.span "fusion-pairwise" (fun () ->
             Core.Fusion.greedy_pairwise ~may_fuse p0))
        all_cands
  | C2P ->
      (* extension: sequential fusion tolerating loop-carried flow, then
         contraction to the lowest sufficient rank *)
      let p = locality ~relax_flow:true (fuse_c all_cands) in
      let absorbed =
        if reduction_fusion then decide_absorbed b p else []
      in
      let cands = filter_reduce_read_candidates b p absorbed all_cands in
      {
        Sir.Scalarize.partition = p;
        contracted =
          Obs.span "contraction" (fun () ->
              Core.Contraction.decide_partial p ~candidates:cands);
        absorbed;
      }

(* Validate, plan each block with [plan_of_block], scalarize. *)
let compile_with ~level ~plan_of_block prog =
  Obs.span "compile" @@ fun () ->
  match Obs.span "check" (fun () -> Prog.validate prog) with
  | Error e ->
      Error
        (Obs.Diagnostic.errorf ~phase:"check" "invalid program %s: %s"
           prog.Prog.name e)
  | Ok () ->
      (* the one skeleton of this compile *)
      let skeleton = Prog.skeleton prog in
      let ctx = make_ctx prog skeleton in
      let plan =
        Obs.span "plan" (fun () -> List.map (plan_of_block ctx) ctx.blocks)
      in
      let code =
        Obs.span "scalarize" (fun () ->
            Sir.Scalarize.scalarize prog skeleton plan)
      in
      Ok
        {
          level;
          prog;
          plan;
          code;
          contracted = Sir.Scalarize.contracted_of_plan plan;
        }

type opts = {
  level : level;
  may_fuse : (block:int -> int list -> bool) option;
  reduction_fusion : bool;
}

let default_opts = { level = C2F3; may_fuse = None; reduction_fusion = true }

let opts ?may_fuse ?(reduction_fusion = true) level =
  { level; may_fuse; reduction_fusion }

let compile_opts o prog =
  compile_with ~level:o.level prog ~plan_of_block:(fun ctx b ->
      let mf =
        match o.may_fuse with
        | None -> fun _ -> true
        | Some f -> fun ss -> f ~block:b.Prog.index ss
      in
      plan_block ~reduction_fusion:o.reduction_fusion ~level:o.level
        ~may_fuse:mf ctx b)

let compile_custom_opts o ~partition prog =
  compile_with ~level:o.level prog ~plan_of_block:(fun ctx (b : Prog.block) ->
      let g = Obs.span "dependence" (fun () -> Core.Asdg.build b.stmts) in
      let compiler_cands, user_cands = block_candidates ctx b.index in
      let p =
        partition ~block:b.index ~compiler:compiler_cands ~user:user_cands g
      in
      finish_plan ~absorb:o.reduction_fusion b p (compiler_cands @ user_cands))

let compile_exn_opts o prog =
  match compile_opts o prog with
  | Ok c -> c
  | Error d -> raise (Obs.Error d)

let contracted_counts (c : compiled) =
  List.fold_left
    (fun (nc, nu) (x, _) ->
      match Prog.find_array c.prog x with
      | Some { Prog.kind = Prog.Compiler; _ } -> (nc + 1, nu)
      | Some { Prog.kind = Prog.User; _ } -> (nc, nu + 1)
      | None -> (nc, nu))
    (0, 0) c.contracted

let remaining_arrays (c : compiled) = List.length c.code.Sir.Code.allocs
