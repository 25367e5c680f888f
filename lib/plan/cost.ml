open Ir

type cfg = {
  machine : Machine.t;
  procs : int;
  opts : Comm.Model.opts;
}

type breakdown = {
  flop_ns : float;
  ref_ns : float;
  miss_ns : float;
  comm_ns : float;
  total_ns : float;
  contracted_elems : int;
}

let zero =
  {
    flop_ns = 0.0;
    ref_ns = 0.0;
    miss_ns = 0.0;
    comm_ns = 0.0;
    total_ns = 0.0;
    contracted_elems = 0;
  }

let add a b =
  {
    flop_ns = a.flop_ns +. b.flop_ns;
    ref_ns = a.ref_ns +. b.ref_ns;
    miss_ns = a.miss_ns +. b.miss_ns;
    comm_ns = a.comm_ns +. b.comm_ns;
    total_ns = a.total_ns +. b.total_ns;
    contracted_elems = a.contracted_elems + b.contracted_elems;
  }

type block_info = {
  stmts : Nstmt.t list;
  volumes : int array;  (** per statement, its region's volume *)
  streams : (string * int) array array;
      (** per statement, its reference streams in sweep order (the
          written array, then every read): array name and simulated
          base address *)
  weights : (string, int) Hashtbl.t;  (** array -> reference weight *)
  mult : int;
  base_refs : int;  (** element references per execution, before contraction *)
  flops : int;  (** floating-point operations per execution *)
}

(* A probe's result is decided by its line count and the base
   addresses of its streams, in order; the key is exactly that,
   [| lines; base_1; ...; base_k |].  Bases are multiples of the
   alignment, so the hash folds every element in and mixes the high
   bits back down. *)
module Probe_memo = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      let x = (!h lxor a.(i)) * 0x100000001b3 in
      h := x lxor (x lsr 29)
    done;
    !h land max_int
end)

type t = {
  cfg : cfg;
  blocks : block_info array;
  red_execs : int;
  memo : (float * float) Probe_memo.t;
      (** probe key -> (L1, L2) misses per execution *)
  memo_lock : Mutex.t;
      (** [memo] is the only mutable field touched after [create];
          parallel plan search costs sibling states from several
          domains against one [t] *)
}

(* Probing a sweep at more lines than this buys no new information:
   interleaved unit-stride streams behave periodically once every set
   of the cache has been visited, so measured miss rates are scaled
   linearly up to the real line count. *)
let probe_cap = 512

let rec expr_flops (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Svar _ | Expr.Ref _ | Expr.Idx _ -> 0
  | Expr.Unop (_, a) -> 1 + expr_flops a
  | Expr.Binop (_, a, b) -> 1 + expr_flops a + expr_flops b
  | Expr.Select (c, a, b) -> 1 + expr_flops c + expr_flops a + expr_flops b

let create cfg prog =
  let blocks = Prog.blocks prog in
  let mults, red_execs = Comm.Model.block_multipliers prog in
  (* Deterministic simulated layout: arrays in declaration order, each
     base aligned well past both line sizes, with a guard line between
     allocations so distinct arrays never share a cache line. *)
  let base = Hashtbl.create 16 in
  let align = 256 in
  let next = ref 0 in
  List.iter
    (fun (a : Prog.array_info) ->
      Hashtbl.replace base a.Prog.name !next;
      let bytes = (8 * Region.volume a.Prog.bounds) + align in
      next := (!next + bytes + align - 1) / align * align)
    prog.Prog.arrays;
  let stream x = (x, Option.value ~default:0 (Hashtbl.find_opt base x)) in
  let info =
    List.mapi
      (fun bi stmts ->
        let base_refs =
          List.fold_left
            (fun acc (s : Nstmt.t) ->
              acc
              + (1 + List.length (Expr.refs s.rhs)) * Region.volume s.region)
            0 stmts
        in
        let flops =
          List.fold_left
            (fun acc (s : Nstmt.t) ->
              acc + (expr_flops s.rhs * Region.volume s.region))
            0 stmts
        in
        let per_stmt f = Array.of_list (List.map f stmts) in
        let volumes = per_stmt (fun s -> Region.volume s.Nstmt.region) in
        let streams =
          per_stmt (fun s ->
              Array.of_list
                (stream s.Nstmt.lhs
                :: List.map (fun (x, _) -> stream x) (Expr.refs s.Nstmt.rhs)))
        in
        let weights = Hashtbl.create 16 in
        List.iter
          (fun (s : Nstmt.t) ->
            List.iter
              (fun x ->
                Hashtbl.replace weights x
                  (Option.value ~default:0 (Hashtbl.find_opt weights x)
                  + (Nstmt.ref_count s x * Region.volume s.region)))
              (Nstmt.arrays s))
          stmts;
        { stmts; volumes; streams; weights; mult = mults.(bi); base_refs; flops })
      blocks
  in
  {
    cfg;
    blocks = Array.of_list info;
    red_execs;
    memo = Probe_memo.create 256;
    memo_lock = Mutex.create ();
  }

let cfg t = t.cfg
let block_mult t ~block = t.blocks.(block).mult

let block_weight t ~block x =
  Option.value ~default:0 (Hashtbl.find_opt t.blocks.(block).weights x)

let lines_of_volume t vol =
  let line = t.cfg.machine.Machine.l1.Cachesim.Cache.line_bytes in
  max 1 (((8 * vol) + line - 1) / line)

let scalar_contracted (bp : Sir.Scalarize.block_plan) =
  List.filter_map
    (function
      | x, Core.Contraction.Scalar -> Some x
      | _, Core.Contraction.Keep_dims _ -> None)
    bp.Sir.Scalarize.contracted

(* One fused cluster = one loop nest sweeping the cluster's region:
   feed an interleaved line-granular stream (one stream per reference,
   contracted arrays excluded) through the machine's cache hierarchy
   and scale the measured misses to the sweep's real line count. *)
let cluster_misses t ~block members ~contracted =
  let info = t.blocks.(block) in
  let bases =
    List.concat_map
      (fun i ->
        Array.fold_right
          (fun (x, b) acc -> if List.mem x contracted then acc else b :: acc)
          info.streams.(i) [])
      members
  in
  match bases with
  | [] -> (0.0, 0.0)
  | _ ->
      let vol = info.volumes.(List.hd members) in
      let m = t.cfg.machine in
      let line = m.Machine.l1.Cachesim.Cache.line_bytes in
      let lines = lines_of_volume t vol in
      let key = Array.of_list (lines :: bases) in
      (* the lock covers only the table; a missed lookup is recomputed
         outside it — two domains may race the same probe, but the
         result is deterministic, so the duplicate work is benign *)
      (match Mutex.protect t.memo_lock (fun () -> Probe_memo.find_opt t.memo key) with
      | Some r -> r
      | None ->
          let probe = min lines probe_cap in
          let hier =
            Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 ()
          in
          let k = Array.length key in
          (* the hierarchy is write-allocate: a stream's access kind
             does not change what it hits *)
          for i = 0 to probe - 1 do
            let off = i * line in
            for r = 1 to k - 1 do
              Cachesim.Cache.Hierarchy.access hier ~addr:(key.(r) + off)
                ~write:false
            done
          done;
          let scale = float_of_int lines /. float_of_int probe in
          let l1 =
            float_of_int
              (Cachesim.Cache.Hierarchy.l1_stats hier).Cachesim.Cache.misses
            *. scale
          in
          let l2 =
            match Cachesim.Cache.Hierarchy.l2_stats hier with
            | Some s -> float_of_int s.Cachesim.Cache.misses *. scale
            | None -> 0.0
          in
          Mutex.protect t.memo_lock (fun () ->
              Probe_memo.replace t.memo key (l1, l2));
          (l1, l2))

let block_cost t ~block (bp : Sir.Scalarize.block_plan) =
  let info = t.blocks.(block) in
  let m = t.cfg.machine in
  let p = bp.Sir.Scalarize.partition in
  let contracted = scalar_contracted bp in
  let saved =
    List.fold_left (fun acc x -> acc + block_weight t ~block x) 0 contracted
  in
  let refs = info.base_refs - saved in
  let l1m, l2m =
    List.fold_left
      (fun (a1, a2) cluster ->
        let s1, s2 = cluster_misses t ~block cluster ~contracted in
        (a1 +. s1, a2 +. s2))
      (0.0, 0.0) (Core.Partition.clusters p)
  in
  let comm =
    Comm.Model.block_comm ~machine:m ~procs:t.cfg.procs ~opts:t.cfg.opts
      info.stmts bp
  in
  let fmult = float_of_int info.mult in
  let flop_ns = fmult *. float_of_int info.flops *. m.Machine.flop_ns in
  let ref_ns = fmult *. float_of_int refs *. m.Machine.l1_hit_ns in
  let miss_ns =
    fmult
    *. ((l1m *. m.Machine.l1_miss_ns) +. (l2m *. m.Machine.l2_miss_ns))
  in
  let comm_ns = fmult *. comm.Comm.Model.effective_ns in
  {
    flop_ns;
    ref_ns;
    miss_ns;
    comm_ns;
    total_ns = flop_ns +. ref_ns +. miss_ns +. comm_ns;
    contracted_elems = saved;
  }

let plan_cost t plan =
  let sum =
    List.fold_left add zero
      (List.mapi (fun bi bp -> block_cost t ~block:bi bp) plan)
  in
  (* reduction combining trees, exactly as Comm.Model.analyze charges
     them; plan-invariant, kept so totals line up with the model *)
  let m = t.cfg.machine in
  let stages = Comm.Model.reduction_stages t.cfg.procs in
  let red =
    float_of_int (t.red_execs * stages)
    *. (m.Machine.msg_latency_ns +. (8.0 *. m.Machine.byte_ns))
  in
  { sum with comm_ns = sum.comm_ns +. red; total_ns = sum.total_ns +. red }

let compiled_cost t (c : Compilers.Driver.compiled) =
  plan_cost t c.Compilers.Driver.plan
