open Ir

type block_plan = {
  partition : Core.Partition.t;
  contracted : (string * Core.Contraction.shape) list;
  absorbed : (int * int) list;
}

type plan = block_plan list

exception Error of string

let trivial_plan prog =
  List.map
    (fun stmts ->
      { partition = Core.Partition.trivial (Core.Asdg.build stmts);
        contracted = [];
        absorbed = [] })
    (Prog.blocks prog)

let contracted_of_plan plan = List.concat_map (fun bp -> bp.contracted) plan

(* ------------------------------------------------------------------ *)
(* Expression translation                                              *)
(* ------------------------------------------------------------------ *)

(* [ctr] maps contracted arrays to their shapes. *)
let subscripts ctr x (d : Support.Vec.t) =
  match List.assoc_opt x ctr with
  | Some Core.Contraction.Scalar -> None
  | Some (Core.Contraction.Keep_dims keep) ->
      let subs = ref [] in
      Array.iteri
        (fun k kept ->
          if kept then
            subs := { Code.base = Code.loop_var (k + 1); off = d.(k) } :: !subs)
        keep;
      Some (Array.of_list (List.rev !subs))
  | None ->
      Some
        (Array.init (Support.Vec.rank d) (fun k ->
             { Code.base = Code.loop_var (k + 1); off = d.(k) }))

let rec tr_expr ctr (e : Expr.t) : Code.expr =
  match e with
  | Expr.Const f -> Code.Const f
  | Expr.Svar s -> Code.Scalar s
  | Expr.Idx i -> Code.Scalar (Code.loop_var i)
  | Expr.Ref (x, d) -> (
      match subscripts ctr x d with
      | None -> Code.Scalar x
      | Some subs -> Code.Load (x, subs))
  | Expr.Unop (op, a) -> Code.Unop (op, tr_expr ctr a)
  | Expr.Binop (op, a, b) -> Code.Binop (op, tr_expr ctr a, tr_expr ctr b)
  | Expr.Select (c, a, b) ->
      Code.Select (tr_expr ctr c, tr_expr ctr a, tr_expr ctr b)

let tr_astmt ctr (s : Nstmt.t) : Code.stmt =
  let rhs = tr_expr ctr s.rhs in
  match subscripts ctr s.lhs s.lhs_off with
  | None -> Code.Sassign (s.lhs, rhs)
  | Some subs -> Code.Store (s.lhs, subs, rhs)

(* ------------------------------------------------------------------ *)
(* Cluster -> loop nest                                                *)
(* ------------------------------------------------------------------ *)

let nest_of_cluster ?(extra = []) ctr (p : Core.Partition.t) rep =
  let members = Core.Partition.members p rep in
  let g = Core.Partition.asdg p in
  let stmts = List.map (Core.Asdg.stmt g) members in
  let region =
    match stmts with
    | s :: _ -> s.Nstmt.region
    | [] -> raise (Error "empty fusible cluster")
  in
  let rank = Region.rank region in
  let ls =
    match Core.Partition.loop_structure p rep with
    | Some ls -> ls
    | None ->
        raise
          (Error
             (Printf.sprintf "cluster P%d has no legal loop structure" rep))
  in
  (* member list is already a topological order: ASDG edges always point
     from earlier to later statements *)
  let body = List.map (tr_astmt ctr) stmts @ extra in
  (* build loops inner-to-outer following the loop structure vector *)
  let rec build i body =
    if i = 0 then body
    else
      let pi = Support.Vec.get ls i in
      let dim = abs pi in
      let { Region.lo; hi } = Region.range region dim in
      build (i - 1)
        [
          Code.For
            { var = Code.loop_var dim; lo; hi; step = (if pi > 0 then 1 else -1); body };
        ]
  in
  build rank body

(* Topological order of clusters (inter-cluster edges, stable by
   representative).  Definition 5 (iii) guarantees acyclicity. *)
let cluster_order p =
  let reps = List.map List.hd (Core.Partition.clusters p) in
  let id = Hashtbl.create 16 in
  List.iteri (fun k r -> Hashtbl.add id r k) reps;
  let edges =
    List.map
      (fun (a, b) -> (Hashtbl.find id a, Hashtbl.find id b))
      (Core.Partition.inter_cluster_edges p)
  in
  match Support.Toposort.sort ~n:(List.length reps) ~edges with
  | Some order ->
      let arr = Array.of_list reps in
      List.map (fun k -> arr.(k)) order
  | None -> raise (Error "inter-cluster cycle in fusion partition")

(* One accumulation step of a reduction, [target := target op arg]. *)
let tr_accumulate ctr (r : Prog.reduction) =
  Code.Sassign
    ( r.target,
      Code.Binop (Prog.redop_binop r.op, Code.Scalar r.target, tr_expr ctr r.arg)
    )

let tr_init (r : Prog.reduction) =
  Code.Sassign (r.target, Code.Const (Prog.redop_init r.op))

(* Emit one block's loop nests; [reds] pairs each reduction fused into
   a nest with that cluster's representative. *)
let tr_block ~reds bp =
  let ctr = bp.contracted in
  let order = cluster_order bp.partition in
  if order = [] then raise (Error "block with no clusters");
  List.concat_map
    (fun rep ->
      let mine =
        List.filter_map (fun (r, red) -> if r = rep then Some red else None) reds
      in
      List.map tr_init mine
      @ nest_of_cluster ~extra:(List.map (tr_accumulate ctr) mine) ctr
          bp.partition rep)
    order

(* ------------------------------------------------------------------ *)
(* Standalone reductions                                               *)
(* ------------------------------------------------------------------ *)

let tr_reduce ctr (r : Prog.reduction) =
  let rec build d body =
    if d = 0 then body
    else
      let { Region.lo; hi } = Region.range r.region d in
      build (d - 1)
        [ Code.For { var = Code.loop_var d; lo; hi; step = 1; body } ]
  in
  tr_init r :: build (Region.rank r.region) [ tr_accumulate ctr r ]

(* ------------------------------------------------------------------ *)
(* Whole program                                                       *)
(* ------------------------------------------------------------------ *)

let scalarize (prog : Prog.t) skeleton (plan : plan) : Code.program =
  let plans = Array.of_list plan in
  let n_blocks =
    Prog.fold (fun n -> function Prog.Block _ -> n + 1 | _ -> n) 0 skeleton
  in
  if Array.length plans <> n_blocks then
    raise
      (Error
         (Printf.sprintf "plan has %d blocks, program has %d"
            (Array.length plans) n_blocks));
  let ctr = contracted_of_plan plan in
  (* a block's nests hold the trailing reductions its plan absorbed;
     the others follow the block, in order *)
  let rec go nodes =
    List.concat_map
      (function
        | Prog.Block b ->
            let bp = plans.(b.index) in
            let absorbed, standalone =
              List.partition
                (fun (r : Prog.reduction) -> List.mem_assoc r.index bp.absorbed)
                b.trailing
            in
            let reds =
              List.map
                (fun (r : Prog.reduction) -> (List.assoc r.index bp.absorbed, r))
                absorbed
            in
            tr_block ~reds bp @ List.concat_map (tr_reduce ctr) standalone
        | Prog.Reduction r -> tr_reduce ctr r
        | Prog.Scalar (x, e) -> [ Code.Sassign (x, tr_expr ctr e) ]
        | Prog.Loop { var; lo; hi; body } ->
            [ Code.For { var; lo; hi; step = 1; body = go body } ])
      nodes
  in
  let body = go skeleton in
  let allocs =
    List.filter_map
      (fun (a : Prog.array_info) ->
        match List.assoc_opt a.name ctr with
        | Some Core.Contraction.Scalar -> None
        | Some (Core.Contraction.Keep_dims keep) ->
            let dims = ref [] in
            Array.iteri
              (fun k kept ->
                if kept then
                  let { Region.lo; hi } = Region.range a.bounds (k + 1) in
                  dims := (lo, hi) :: !dims)
              keep;
            Some { Code.name = a.name; dims = Array.of_list (List.rev !dims) }
        | None ->
            Some
              {
                Code.name = a.name;
                dims =
                  Array.init (Region.rank a.bounds) (fun k ->
                      let { Region.lo; hi } = Region.range a.bounds (k + 1) in
                      (lo, hi));
              })
      prog.Prog.arrays
  in
  let ctr_scalars =
    List.filter_map
      (fun (x, shape) ->
        match shape with
        | Core.Contraction.Scalar -> Some (x, 0.0)
        | Core.Contraction.Keep_dims _ -> None)
      ctr
  in
  {
    Code.name = prog.Prog.name;
    allocs;
    scalars = prog.Prog.scalars @ ctr_scalars;
    body;
    live_out = prog.Prog.live_out;
  }
